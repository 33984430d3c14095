//! One shard worker of the `wide_cluster` workload: the same entry point
//! as the repository's `faultline-shard-worker`, built inside this
//! package so the benchmark needs no binary from another workspace.

fn main() {
    std::process::exit(faultline_core::serve_stdio());
}
