//! Provenance of a run: the host, the toolchain, the source revision
//! and the binary, plus the process's peak resident memory.

use std::path::Path;
use std::process::{Command, Stdio};

/// Where run records and spans are written.
pub fn runs_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/runs"))
}

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Host and build facts recorded with every run.
pub struct Provenance {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The first `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// The checked-out commit, when the tree is a git checkout.
    pub git_sha: String,
    /// Hash of the running executable: runs of one build share it.
    pub build_id: String,
}

impl Provenance {
    /// Collects the facts; anything unavailable reads `unknown`.
    pub fn collect() -> Provenance {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let rustc = Command::new("rustc")
            .arg("--version")
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(unknown);
        let build_id = std::env::current_exe()
            .and_then(std::fs::read)
            .map(|bytes| format!("{:016x}", fnv1a(FNV_BASIS, &bytes)))
            .unwrap_or_else(|_| unknown());
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            rustc,
            git_sha: runs_dir()
                .parent()
                .and_then(Path::parent)
                .and_then(git_sha)
                .unwrap_or_else(unknown),
            build_id,
        }
    }

    /// As a JSON object.
    pub fn json(&self) -> String {
        let esc = mba_obs::json::json_escape;
        format!(
            "{{\"nproc\":{},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"git_sha\":\"{}\",\"build_id\":\"{}\"}}",
            self.nproc,
            esc(&self.cpu_model),
            esc(&self.rustc),
            esc(&self.git_sha),
            esc(&self.build_id)
        )
    }
}

fn unknown() -> String {
    "unknown".to_string()
}

/// Reads `HEAD` from `root/.git` without running git, so nothing
/// outside the tree is consulted.
fn git_sha(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
