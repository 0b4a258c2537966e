//! Figure binaries must survive a reader that goes away: `fig4 | head -1`
//! exits 0 instead of panicking on the first write to a closed pipe.

use std::process::{Command, Stdio};

#[test]
fn fig4_exits_cleanly_when_stdout_is_closed() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fig4"))
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fig4");
    // Close the read end before the child writes anything, so every
    // line it prints hits a broken pipe.
    drop(child.stdout.take());
    let status = child.wait().expect("wait for fig4");
    assert_eq!(status.code(), Some(0), "fig4 under a closed pipe: {status}");
}
