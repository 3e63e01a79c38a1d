//! `campaign-journal`: `run_campaign_with` on the default 1000-trial
//! grid of the seed, with the write-ahead journal on. Fault injection
//! forces the serial RMT path, the reference-executor oracle runs, and
//! one fsync lands per trial.

use crate::harness::{RunCfg, Unit, Workload};
use crate::trace::Tracer;
use rmt3d::telemetry::NullSink;
use rmt3d_campaign::journal::replay;
use rmt3d_campaign::{run_campaign_with, CampaignOptions, CampaignSpec};
use std::path::PathBuf;
use std::time::Instant;

/// Set-up output: the seed's grid, a journal directory, and the report
/// of every unit for the whole-run comparison.
pub struct State {
    spec: CampaignSpec,
    dir: PathBuf,
    reports: Vec<String>,
}

/// The workload.
pub struct CampaignJournal;

impl Workload for CampaignJournal {
    type State = State;

    fn setup(&self, cfg: &RunCfg, rep: usize) -> Result<State, String> {
        let spec = CampaignSpec::default_grid(cfg.seed);
        spec.validate()?;
        let dir = cfg
            .work_dir
            .join(format!("campaign-seed{}-{rep}", cfg.seed));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(State {
            spec,
            dir,
            reports: Vec::new(),
        })
    }

    fn unit(
        &self,
        st: &mut State,
        cfg: &RunCfg,
        index: usize,
        tracer: Option<&Tracer>,
    ) -> Result<Unit, String> {
        let journal = st.dir.join(format!("unit{index}.journal.jsonl"));
        let opts = CampaignOptions {
            jobs: cfg.workers,
            journal: Some(journal.clone()),
            ..CampaignOptions::default()
        };
        let t = Instant::now();
        let window_start = tracer.map(Tracer::now_ns);
        let top = tracer.map(|tr| tr.begin("campaign.run_campaign_with", None, None));
        let run = run_campaign_with(&st.spec, &opts, &mut NullSink)?;
        if let (Some(tr), Some(id)) = (tracer, top) {
            tr.end(id);
        }
        let wall_s = t.elapsed().as_secs_f64();

        let mut u = Unit {
            wall_s,
            window_ns: tracer.zip(window_start).map(|(tr, s)| (s, tr.now_ns())),
            ..Unit::default()
        };
        let report = &run.report;
        for rec in &report.records {
            u.ops.record(rec.ok());
            if let Ok(t) = &rec.outcome {
                u.jobs += 1;
                u.sim_instr += t.committed;
            }
        }
        if !report.full_coverage() || !report.violations().is_empty() {
            u.failures.push(format!(
                "campaign unit {index}: coverage incomplete or {} violation(s)",
                report.violations().len()
            ));
        }
        let text = std::fs::read_to_string(&journal)
            .map_err(|e| format!("cannot read {}: {e}", journal.display()))?;
        let total = st.spec.total_trials();
        let r = replay(&text, &st.spec);
        if r.discarded.is_some() || r.completed.len() != total || !r.in_flight.is_empty() {
            u.fail(format!(
                "campaign unit {index}: journal replay finds {}/{total} done, {} in flight, discarded {:?}",
                r.completed.len(),
                r.in_flight.len(),
                r.discarded
            ));
        }
        if tracer.is_some() {
            u.layer.push((
                "campaign.journal_bytes_per_trial",
                text.len() as f64 / total as f64,
            ));
        }
        std::fs::remove_file(&journal)
            .map_err(|e| format!("cannot remove {}: {e}", journal.display()))?;
        st.reports.push(report.to_jsonl());
        Ok(u)
    }

    fn finish(&self, st: State, cfg: &RunCfg, units: &mut [Unit]) -> Result<(), String> {
        if !units.is_empty() {
            // The reference: an unjournaled run of the same grid.
            let opts = CampaignOptions {
                jobs: cfg.workers,
                ..CampaignOptions::default()
            };
            let want = run_campaign_with(&st.spec, &opts, &mut NullSink)?
                .report
                .to_jsonl();
            for (u, got) in units.iter_mut().zip(&st.reports) {
                if *got != want {
                    u.fail("campaign report differs from the unjournaled run".to_string());
                }
            }
        }
        std::fs::remove_dir_all(&st.dir)
            .map_err(|e| format!("cannot remove {}: {e}", st.dir.display()))
    }
}
