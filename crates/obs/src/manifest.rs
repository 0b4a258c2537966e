//! Run manifests: the identity card every recorded run carries.
//!
//! A [`RunManifest`] pins down *what* produced an artifact — command,
//! seed, policy, configuration knobs, a digest of the topology the run
//! placed onto, and a digest of the workload it served — so any metrics
//! document, JSONL stream, or Prometheus exposition is self-describing.
//! Two artifacts can then be checked for *comparability* (same topology
//! and sampling cadence, differing policy) before `vc diff` aligns
//! their metrics; see the [`diff`](mod@crate::diff) module.
//!
//! The manifest travels embedded under the [`MANIFEST_KEY`] key of the
//! metrics JSON document, as the first line of a streaming JSONL file
//! (`{"manifest": {...}}`, skipped by [`crate::replay_jsonl`]), and as a
//! `vc_run_info` info-metric in the Prometheus exposition.

use serde_json::Value;

/// JSON key under which a manifest embeds in run documents and stream
/// headers.
pub const MANIFEST_KEY: &str = "manifest";

/// Current manifest schema version. Bump on incompatible field changes;
/// [`crate::diff`] refuses to compare across versions.
const SCHEMA_VERSION: u64 = 1;

/// Incremental FNV-1a 64-bit hasher — the workspace's dependency-free
/// digest for topology, workload, and artifact fingerprints. Not
/// cryptographic; collisions only need to be unlikely, not infeasible.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    pub fn write_str(&mut self, s: &str) -> &mut Self {
        // Length-prefix so ("ab","c") and ("a","bc") digest differently.
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes())
    }

    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Final digest as a fixed-width hex string.
    pub fn finish(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The identity of one recorded `simulate*` run.
///
/// `config` carries the command-specific knobs as sorted key/value
/// string pairs (racks, nodes, capacity, requests, rate, workload,
/// maps, ...) so the manifest never needs a schema change when a
/// command grows a flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// The manifest schema version.
    pub schema_version: u64,
    /// Workspace crate version that produced the run.
    pub crate_version: String,
    /// Producing subcommand: `simulate` or `simulate-job`.
    pub command: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Placement policy name (or `-` where the command has none).
    pub policy: String,
    /// `ts.*` sampling cadence in µs; 0 when windowed sampling was off.
    pub window_us: u64,
    /// Digest of the topology the run placed onto (node/rack structure
    /// plus distance tiers). Two runs are only comparable when equal.
    pub topology_digest: String,
    /// Digest of the workload/request trace the run served.
    pub workload_digest: String,
    /// Command-specific configuration knobs, sorted by key.
    pub config: Vec<(String, String)>,
}

impl RunManifest {
    /// Build a manifest; `config` is sorted (and deduplicated by key,
    /// last write wins) so digests are order-independent.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        crate_version: &str,
        command: &str,
        seed: u64,
        policy: &str,
        window_us: u64,
        topology_digest: String,
        workload_digest: String,
        mut config: Vec<(String, String)>,
    ) -> Self {
        config.sort_by(|a, b| a.0.cmp(&b.0));
        config.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 = std::mem::take(&mut later.1);
                true
            } else {
                false
            }
        });
        RunManifest {
            schema_version: SCHEMA_VERSION,
            crate_version: crate_version.to_string(),
            command: command.to_string(),
            seed,
            policy: policy.to_string(),
            window_us,
            topology_digest,
            workload_digest,
            config,
        }
    }

    /// Digest over every identifying field — stable across re-runs of
    /// the same configuration and seed.
    pub(crate) fn digest(&self) -> String {
        let mut h = Fnv64::new();
        h.write_u64(self.schema_version)
            .write_str(&self.crate_version)
            .write_str(&self.command)
            .write_u64(self.seed)
            .write_str(&self.policy)
            .write_u64(self.window_us)
            .write_str(&self.topology_digest)
            .write_str(&self.workload_digest);
        for (k, v) in &self.config {
            h.write_str(k).write_str(v);
        }
        h.finish()
    }

    /// JSON form (includes the computed `digest` field).
    pub fn to_json(&self) -> Value {
        let config: Vec<(String, Value)> = self
            .config
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect();
        Value::Object(vec![
            (
                "schema_version".to_string(),
                Value::U64(self.schema_version),
            ),
            (
                "crate_version".to_string(),
                Value::Str(self.crate_version.clone()),
            ),
            ("command".to_string(), Value::Str(self.command.clone())),
            ("seed".to_string(), Value::U64(self.seed)),
            ("policy".to_string(), Value::Str(self.policy.clone())),
            ("window_us".to_string(), Value::U64(self.window_us)),
            (
                "topology_digest".to_string(),
                Value::Str(self.topology_digest.clone()),
            ),
            (
                "workload_digest".to_string(),
                Value::Str(self.workload_digest.clone()),
            ),
            ("config".to_string(), Value::Object(config)),
            ("digest".to_string(), Value::Str(self.digest())),
        ])
    }

    /// Parse a manifest back out of its JSON form. Errors name the
    /// missing or malformed field so callers can point at it.
    pub(crate) fn from_json(v: &Value) -> Result<Self, String> {
        let str_field = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("manifest field `{name}` missing or not a string"))
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("manifest field `{name}` missing or not an integer"))
        };
        let schema_version = u64_field("schema_version")?;
        let mut config = Vec::new();
        if let Some(entries) = v.get("config").and_then(Value::as_object) {
            for (k, val) in entries {
                let s = val
                    .as_str()
                    .ok_or_else(|| format!("manifest config `{k}` is not a string"))?;
                config.push((k.clone(), s.to_string()));
            }
        }
        let m = RunManifest {
            schema_version,
            crate_version: str_field("crate_version")?,
            command: str_field("command")?,
            seed: u64_field("seed")?,
            policy: str_field("policy")?,
            window_us: u64_field("window_us")?,
            topology_digest: str_field("topology_digest")?,
            workload_digest: str_field("workload_digest")?,
            config,
        };
        if let Some(recorded) = v.get("digest").and_then(Value::as_str) {
            if recorded != m.digest() {
                return Err(format!(
                    "manifest field `digest` is corrupt: recorded {recorded}, recomputed {}",
                    m.digest()
                ));
            }
        }
        Ok(m)
    }

    /// Extract and parse the manifest embedded in a run document (the
    /// [`MANIFEST_KEY`] key of a metrics JSON). `Ok(None)` when the
    /// document has no manifest at all.
    pub(crate) fn from_document(doc: &Value) -> Result<Option<Self>, String> {
        match doc.get(MANIFEST_KEY) {
            None => Ok(None),
            Some(v) => Self::from_json(v).map(Some),
        }
    }

    /// The `vc_run_info` Prometheus info-metric: constant value 1 with
    /// the manifest fields as labels, the standard pattern for exposing
    /// build/run identity to dashboards.
    pub fn to_prom_info(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        format!(
            "# TYPE vc_run_info gauge\nvc_run_info{{command=\"{}\",policy=\"{}\",seed=\"{}\",\
             window_us=\"{}\",topology=\"{}\",workload=\"{}\",version=\"{}\",digest=\"{}\"}} 1\n",
            esc(&self.command),
            esc(&self.policy),
            self.seed,
            self.window_us,
            esc(&self.topology_digest),
            esc(&self.workload_digest),
            esc(&self.crate_version),
            esc(&self.digest()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        RunManifest::new(
            "0.1.0",
            "simulate",
            7,
            "global",
            5_000_000,
            "aaaa".to_string(),
            "bbbb".to_string(),
            vec![
                ("racks".to_string(), "3".to_string()),
                ("nodes".to_string(), "10".to_string()),
            ],
        )
    }

    #[test]
    fn fnv_is_stable_and_length_prefixed() {
        let digest_str = |s: &str| Fnv64::new().write_str(s).finish();
        assert_eq!(digest_str("abc"), digest_str("abc"));
        assert_ne!(digest_str("abc"), digest_str("abd"));
        let mut a = Fnv64::new();
        a.write_str("ab").write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let m = sample();
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
        assert_eq!(m.digest(), back.digest());
    }

    #[test]
    fn config_is_sorted_and_digest_order_independent() {
        let a = RunManifest::new(
            "0.1.0",
            "simulate",
            0,
            "global",
            0,
            "t".into(),
            "w".into(),
            vec![
                ("b".to_string(), "2".to_string()),
                ("a".to_string(), "1".to_string()),
            ],
        );
        let b = RunManifest::new(
            "0.1.0",
            "simulate",
            0,
            "global",
            0,
            "t".into(),
            "w".into(),
            vec![
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "2".to_string()),
            ],
        );
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.config[0], ("a".to_string(), "1".to_string()));
    }

    #[test]
    fn digest_changes_with_any_field() {
        let base = sample();
        let mut m = base.clone();
        m.seed = 8;
        assert_ne!(base.digest(), m.digest());
        let mut m = base.clone();
        m.policy = "spread".to_string();
        assert_ne!(base.digest(), m.digest());
        let mut m = base.clone();
        m.topology_digest = "cccc".to_string();
        assert_ne!(base.digest(), m.digest());
    }

    #[test]
    fn corrupt_digest_is_rejected() {
        let mut v = sample().to_json();
        let Value::Object(entries) = &mut v else {
            unreachable!()
        };
        for (k, val) in entries.iter_mut() {
            if k == "digest" {
                *val = Value::Str("deadbeef".to_string());
            }
        }
        let err = RunManifest::from_json(&v).unwrap_err();
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn missing_field_is_named() {
        let err = RunManifest::from_json(&serde_json::json!({"schema_version": 1})).unwrap_err();
        assert!(err.contains("crate_version"), "{err}");
    }

    #[test]
    fn prom_info_is_one_labelled_sample() {
        let text = sample().to_prom_info();
        assert!(text.starts_with("# TYPE vc_run_info gauge\n"), "{text}");
        assert!(text.contains("command=\"simulate\""), "{text}");
        assert!(text.contains("policy=\"global\""), "{text}");
        assert!(text.trim_end().ends_with("} 1"), "{text}");
    }
}
