//! `compare PARENT.json CHANGE.json`: both sides' medians and quartiles
//! per workload and metric, the delta, and a verdict against the
//! metric's bound.

use crate::metrics::{self, Better, Bound, MetricDef};
use crate::report::read_file;
use crate::stats::Summary;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// Either side's interquartile range exceeds the bound, so the run
    /// cannot tell a change from noise.
    Unresolved,
    /// A per-layer metric: it has no bound.
    NoBound,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "-",
        }
    }
}

pub fn verdict(def: Option<&MetricDef>, parent: &Summary, change: &Summary) -> Verdict {
    let Some((better, bound)) = def.and_then(|d| Some((d.better, d.bound?))) else {
        return Verdict::NoBound;
    };
    let iqr = |s: &Summary| s.q3 - s.q1;
    let (limit, noisy) = match bound {
        Bound::Rel(b) => (
            b * parent.median.abs(),
            parent.spread() > b || change.spread() > b,
        ),
        Bound::Abs(b) => (b, iqr(parent) > b || iqr(change) > b),
    };
    if noisy {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Higher => parent.median - change.median,
        Better::Lower => change.median - parent.median,
    };
    if worse_by > limit {
        Verdict::Worse
    } else if -worse_by > iqr(parent).max(0.0) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

pub fn main(args: &[String]) -> i32 {
    let [parent, change] = args else {
        eprintln!("usage: phelps-benchmark compare PARENT.json CHANGE.json");
        return 2;
    };
    let (parent, change) = match (read_file(Path::new(parent)), read_file(Path::new(change))) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!(
        "{:<9} {:<52} {:>12} {:>21} {:>12} {:>21} {:>9}  verdict",
        "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "delta"
    );
    for p in &parent {
        let Some(c) = change
            .iter()
            .find(|c| c.workload == p.workload && c.mode == p.mode)
        else {
            println!("{:<9} only in the parent file", p.workload);
            continue;
        };
        for pm in &p.metrics {
            let Some(cm) = c.metric(&pm.name) else {
                continue;
            };
            let (a, b) = (&pm.value, &cm.value);
            let delta = if a.median == 0.0 {
                format!("{:+.3}", b.median - a.median)
            } else {
                format!("{:+.2}%", 100.0 * (b.median / a.median - 1.0))
            };
            println!(
                "{:<9} {:<52} {:>12.4} [{:>9.4}, {:>9.4}] {:>12.4} [{:>9.4}, {:>9.4}] {:>9}  {}",
                p.workload,
                format!("{} ({})", pm.name, pm.unit),
                a.median,
                a.q1,
                a.q3,
                b.median,
                b.q1,
                b.q3,
                delta,
                verdict(metrics::find(&pm.name), a, b).name()
            );
        }
        if p.stats_digest != c.stats_digest {
            println!(
                "{:<9} sim.stats_digest CHANGED: {} -> {} (simulated output differs)",
                p.workload, p.stats_digest, c.stats_digest
            );
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let mips = find("mips");
        let p = s(2.0, 1.98, 2.02);
        assert_eq!(verdict(mips, &p, &s(2.0, 1.99, 2.01)), Verdict::WithinBound);
        assert_eq!(verdict(mips, &p, &s(1.5, 1.49, 1.51)), Verdict::Worse);
        assert_eq!(verdict(mips, &p, &s(2.2, 2.19, 2.21)), Verdict::Better);
        assert_eq!(verdict(mips, &p, &s(2.2, 1.5, 2.5)), Verdict::Unresolved);
        let setup = find("setup_s");
        assert_eq!(verdict(setup, &p, &s(1.7, 1.69, 1.71)), Verdict::Better);
        assert_eq!(
            verdict(find("core.pipeline.ns_per_cycle"), &p, &p),
            Verdict::NoBound
        );
    }

    #[test]
    fn absolute_bounds_are_in_the_metric_unit() {
        let err = find("shard_err_pct");
        let p = Summary::exact(45.6);
        assert_eq!(
            verdict(err, &p, &Summary::exact(45.65)),
            Verdict::WithinBound
        );
        assert_eq!(verdict(err, &p, &Summary::exact(45.8)), Verdict::Worse);
        let fail = find("fail_pct");
        let zero = Summary::exact(0.0);
        assert_eq!(verdict(fail, &zero, &zero), Verdict::WithinBound);
        assert_eq!(verdict(fail, &zero, &Summary::exact(2.5)), Verdict::Worse);
    }
}
