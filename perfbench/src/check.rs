//! Output and accounting checks: the CPU fused oracle, the report's
//! accounting identities, and the exact-repeat fingerprint of a run's
//! simulated counts.

use std::collections::HashMap;
use std::sync::Arc;

use ks_blas::{Layout, Matrix};
use ks_core::plan::SourcePlan;
use ks_core::problem::PointSet;
use ks_core::{solve_multi_planned, FusedCpuConfig, GaussianKernel};
use ks_serve::{Query, ServeReport, SHARD_ALIGN};

/// Relative tolerance of GPU-served results against the CPU oracle:
/// the one the pool and differential suites use.
pub const GPU_REL_TOL: f32 = 5e-3;

/// The CPU fused oracle for every query of a stream:
/// `solve_multi_planned` on the query's corpus, targets, `h` and
/// weights, with the solver blocking the server's CPU path uses.
/// Queries sharing `(corpus, targets, h)` are solved together, one
/// weight column each; the solver's columns are bit-identical to
/// single-column solves.
pub fn oracle(stream: &[Query]) -> Vec<Vec<f32>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut index: HashMap<(u64, *const PointSet, u32), usize> = HashMap::new();
    for (i, q) in stream.iter().enumerate() {
        let key = (q.sources.id().raw(), Arc::as_ptr(&q.targets), q.h.to_bits());
        let g = *index.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }
    let mut out = vec![Vec::new(); stream.len()];
    let cpu = FusedCpuConfig::default();
    for members in groups {
        let proto = &stream[members[0]];
        let plan = SourcePlan::build(proto.sources.points());
        let n = proto.targets.len();
        let w = Matrix::from_fn(n, members.len(), Layout::RowMajor, |j, c| {
            stream[members[c]].weights[j]
        });
        let v = solve_multi_planned(
            &plan,
            &proto.targets,
            &GaussianKernel { h: proto.h },
            &w,
            &cpu,
        );
        for (c, &qi) in members.iter().enumerate() {
            out[qi] = (0..v.rows()).map(|i| v.get(i, c)).collect();
        }
    }
    out
}

/// How one result compares with the oracle, in `SHARD_ALIGN`-row
/// tiles (shards are tile-aligned, so each tile was served whole by
/// one rung of one device).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TileMatch {
    /// Tiles bitwise equal to the oracle: the CPU path's signature.
    pub exact: u64,
    /// Tiles within [`GPU_REL_TOL`] but not bitwise equal.
    pub close: u64,
}

/// Compares a served result with its oracle. A tile must be bitwise
/// equal (CPU-served) or within the GPU tolerance.
///
/// # Errors
/// Describes the first row outside tolerance, or a length mismatch.
pub fn compare(got: &[f32], want: &[f32]) -> Result<TileMatch, String> {
    if got.len() != want.len() {
        return Err(format!("length {} != oracle {}", got.len(), want.len()));
    }
    let mut m = TileMatch::default();
    for (t, (g, w)) in got
        .chunks(SHARD_ALIGN)
        .zip(want.chunks(SHARD_ALIGN))
        .enumerate()
    {
        if g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits()) {
            m.exact += 1;
            continue;
        }
        for (r, (a, b)) in g.iter().zip(w).enumerate() {
            // Written so that a NaN result fails the comparison.
            let close = (a - b).abs() <= GPU_REL_TOL * b.abs().max(1.0);
            if !close {
                return Err(format!("row {}: {a} vs oracle {b}", t * SHARD_ALIGN + r));
            }
        }
        m.close += 1;
    }
    Ok(m)
}

/// Batches (unpooled) or shards (pooled) the report says were served
/// on the CPU: fallbacks, recoveries and admission rejects.
pub fn cpu_units(r: &ServeReport) -> u64 {
    let rejects = r.static_admission.rejects;
    match &r.pool {
        Some(p) => p.total_fallbacks() + rejects,
        None => r.fallbacks + rejects,
    }
}

/// Units of GPU-capable work: batches, or shards plus admission
/// rejects when pooled.
pub fn work_units(r: &ServeReport) -> u64 {
    match &r.pool {
        Some(p) => p.shard_tasks + r.static_admission.rejects,
        None => r.batches,
    }
}

/// Every broken accounting identity of a report, described.
pub fn identity_violations(r: &ServeReport) -> Vec<String> {
    let mut bad = Vec::new();
    let mut need = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };
    need(
        r.submitted == r.accepted + r.rejected,
        format!(
            "submitted {} != accepted {} + rejected {}",
            r.submitted, r.accepted, r.rejected
        ),
    );
    need(
        r.accepted == r.completed + r.expired + r.shed + r.failed,
        format!(
            "accepted {} != completed {} + expired {} + shed {} + failed {}",
            r.accepted, r.completed, r.expired, r.shed, r.failed
        ),
    );
    need(
        r.attempts == r.batches + r.retries,
        format!(
            "attempts {} != batches {} + retries {}",
            r.attempts, r.batches, r.retries
        ),
    );
    need(
        r.internal_errors == 0,
        format!("{} internal errors", r.internal_errors),
    );
    if let Some(p) = &r.pool {
        let executed: u64 = p.devices.iter().map(|d| d.executed).sum();
        let placed: u64 = p.devices.iter().map(|d| d.shard_tasks).sum();
        need(
            executed == p.shard_tasks && placed == p.shard_tasks,
            format!(
                "pool dispatched {} shards but devices placed {placed} and executed {executed}",
                p.shard_tasks
            ),
        );
    }
    bad
}

/// Checks every result of one served round against the oracle and
/// the report's CPU-served count. Returns, per query, whether it
/// completed correctly; mismatches are described in `errors`.
///
/// Each CPU-served batch or shard covers at least one tile of at
/// least one query and the CPU path is bit-exact, so the round must
/// show at least that many bitwise-exact tiles.
pub fn check_round(
    results: &[Option<Vec<f32>>],
    oracle: &[Vec<f32>],
    report: &ServeReport,
    errors: &mut Vec<String>,
) -> Vec<bool> {
    let mut ok = vec![false; results.len()];
    let mut exact = 0u64;
    for (i, (got, want)) in results.iter().zip(oracle).enumerate() {
        let Some(got) = got else { continue };
        match compare(got, want) {
            Ok(m) => {
                ok[i] = true;
                exact += m.exact;
            }
            Err(e) => errors.push(format!("query {i}: {e}")),
        }
    }
    let cpu = cpu_units(report);
    if exact < cpu {
        errors.push(format!(
            "report lists {cpu} CPU-served batches or shards but only {exact} \
             result tiles match the CPU oracle bitwise"
        ));
    }
    errors.extend(identity_violations(report));
    ok
}

/// The simulated counts of one round that must repeat exactly for one
/// seed. Host-timing-dependent counters (work stealing) are left out.
pub fn fingerprint(r: &ServeReport) -> Vec<u64> {
    let mut f = vec![
        r.submitted,
        r.completed,
        r.batches,
        r.batched_queries,
        r.attempts,
        r.retries,
        r.launches,
        r.packed_launches,
        r.packed_segments,
        r.fallbacks,
        r.corruption_detected,
        r.injected_faults,
        r.plan_cache.hits,
        r.plan_cache.misses,
        r.plan_cache.evictions,
        r.static_admission.checks,
        r.static_admission.rejects,
        r.energy_j.to_bits(),
        r.profiles.len() as u64,
    ];
    for p in &r.profiles {
        f.push(p.total_counters().warp_insts());
        f.push(p.total_mem().dram_transactions());
        f.push(p.total_time_s().to_bits());
    }
    if let Some(p) = &r.pool {
        f.extend([p.shard_tasks, p.sim_time_s.to_bits()]);
        for d in &p.devices {
            f.extend([
                d.shard_tasks,
                d.gpu_shards,
                d.cpu_fallbacks,
                d.evictions,
                d.readmissions,
                d.link_retransmits,
                d.link_timeouts,
                d.transfer_bytes,
            ]);
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_core::plan::SourceSet;
    use ks_serve::{PoolReport, ServeConfig, Server, Submit};

    fn stream() -> Vec<Query> {
        let sources = SourceSet::new(PointSet::uniform_cube(256, 8, 1));
        let targets = Arc::new(PointSet::uniform_cube(128, 8, 2));
        (0..3)
            .map(|c| Query {
                sources: sources.clone(),
                targets: Arc::clone(&targets),
                weights: (0..128)
                    .map(|j| ((j * 7 + c) % 11) as f32 / 11.0 - 0.5)
                    .collect(),
                h: 1.0,
                deadline: None,
            })
            .collect()
    }

    /// Serves the stream on the CPU backend: every tile bit-exact.
    fn serve(stream: &[Query]) -> (Vec<Option<Vec<f32>>>, ServeReport) {
        let mut srv = Server::start(ServeConfig {
            backend: ks_serve::ServeBackend::CpuFused,
            ..ServeConfig::default()
        });
        let tickets: Vec<_> = stream
            .iter()
            .map(|q| match srv.submit(q.clone()) {
                Submit::Accepted(t) => t,
                Submit::Rejected(_) => panic!("queue rejected"),
            })
            .collect();
        let results = tickets.iter().map(|t| t.wait().ok()).collect();
        (results, srv.shutdown())
    }

    #[test]
    fn a_faithful_run_passes_every_check() {
        let s = stream();
        let (results, report) = serve(&s);
        let want = oracle(&s);
        let mut errors = Vec::new();
        assert_eq!(
            check_round(&results, &want, &report, &mut errors),
            [true; 3]
        );
        assert!(errors.is_empty(), "{errors:?}");
        for (g, w) in results.iter().zip(&want) {
            let m = compare(g.as_ref().unwrap(), w).unwrap();
            assert_eq!((m.exact, m.close), (2, 0), "CPU path is bit-exact");
        }
    }

    #[test]
    fn the_oracle_check_rejects_a_doctored_result() {
        let s = stream();
        let (mut results, report) = serve(&s);
        let want = oracle(&s);
        results[1].as_mut().unwrap()[200] *= 1.01;
        let mut errors = Vec::new();
        assert_eq!(
            check_round(&results, &want, &report, &mut errors),
            [true, false, true]
        );
        assert!(
            errors.iter().any(|e| e.contains("query 1: row 200")),
            "{errors:?}"
        );
        // Within tolerance but not bitwise: passes as GPU-like work...
        let g = results[0].as_mut().unwrap();
        g[5] = f32::from_bits(g[5].to_bits() + 1);
        let m = compare(g, &want[0]).unwrap();
        assert_eq!((m.exact, m.close), (1, 1));
        // ...but not when the report says that work was CPU-served.
        let mut cpu_report = report.clone();
        cpu_report.fallbacks = 7;
        let mut errors = Vec::new();
        let ok = vec![results[0].clone()];
        check_round(&ok, &want[..1], &cpu_report, &mut errors);
        assert!(
            errors.iter().any(|e| e.contains("CPU-served")),
            "{errors:?}"
        );
    }

    #[test]
    fn the_identity_check_rejects_a_doctored_report() {
        let (_, report) = serve(&stream());
        assert!(identity_violations(&report).is_empty());
        let mut r = report.clone();
        r.rejected += 1;
        assert_eq!(identity_violations(&r).len(), 1);
        let mut r = report.clone();
        r.completed -= 1;
        assert!(identity_violations(&r)[0].starts_with("accepted"));
        let mut r = report.clone();
        r.retries += 1;
        assert!(identity_violations(&r)[0].starts_with("attempts"));
        let mut r = report;
        r.pool = Some(PoolReport {
            shard_tasks: 4,
            ..PoolReport::default()
        });
        assert!(identity_violations(&r)[0].starts_with("pool dispatched 4"));
    }

    #[test]
    fn fingerprints_differ_when_a_count_drifts() {
        let (_, report) = serve(&stream());
        let mut r = report.clone();
        assert_eq!(fingerprint(&report), fingerprint(&r));
        r.plan_cache.misses += 1;
        assert_ne!(fingerprint(&report), fingerprint(&r));
    }
}
