//! Typed journal records and their versioned JSONL schema.
//!
//! Every journal line is one JSON object with a `"record"` kind tag and a
//! `"v"` schema version. The schema is append-only: adding fields is a
//! compatible change (readers ignore unknown fields), removing or
//! renaming one requires bumping [`SCHEMA_VERSION`]. Non-finite floats
//! follow the `json_f64` convention (`NaN` → `null`, `±inf` → strings),
//! and `u64` seeds are serialized as strings so they survive the `f64`
//! number pipeline exactly.

use maopt_exec::{CounterSnapshot, HistogramSnapshot, MetricSnapshot};

use crate::json::Json;

/// Version of the journal record schema.
pub const SCHEMA_VERSION: u32 = 1;

/// Run manifest: everything needed to identify and re-run one
/// optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Optimizer label, e.g. `"MA-Opt"`.
    pub label: String,
    /// Problem name, e.g. `"Two-stage OTA"`.
    pub problem: String,
    /// Design-space dimensionality.
    pub dim: usize,
    /// Metric vector length (`m + 1`).
    pub num_metrics: usize,
    /// RNG seed of this run.
    pub seed: u64,
    /// Optimization simulation budget.
    pub budget: usize,
    /// Initial sample count.
    pub init_size: usize,
    /// Engine worker count.
    pub jobs: usize,
    /// Crate version that wrote the journal.
    pub version: String,
    /// Build profile (`"release"` / `"debug"`).
    pub build: String,
    /// Free-form optimizer configuration (hyperparameters etc.).
    pub config: Json,
}

impl Manifest {
    /// This build's `(version, profile)` pair for manifest stamping.
    pub fn build_info() -> (String, String) {
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        (env!("CARGO_PKG_VERSION").to_string(), profile.to_string())
    }
}

/// One actor's contribution to a round.
#[derive(Debug, Clone, PartialEq)]
pub struct ActorRound {
    /// Actor index.
    pub id: usize,
    /// Final actor training loss (Eqs. 5–6).
    pub loss: f64,
    /// Critic-predicted FoM of the actor's chosen proposal.
    pub predicted_fom: f64,
    /// Simulated FoM of the proposal (`NaN` when the budget ran out
    /// before this proposal was simulated).
    pub simulated_fom: f64,
    /// Whether the simulated proposal met every spec.
    pub feasible: bool,
}

/// Elite-set statistics after one rebuild (Fig. 2 internals).
#[derive(Debug, Clone, PartialEq)]
pub struct EliteStats {
    /// Designs currently held.
    pub size: usize,
    /// Members not present in the previous round's set (refresh rate).
    pub refreshed: usize,
    /// Bounding-box volume (product of per-coordinate extents).
    pub volume: f64,
    /// Bounding-box diagonal length.
    pub diameter: f64,
    /// Worst-minus-best elite FoM.
    pub fom_spread: f64,
}

/// One actor-critic round (Algorithm 1).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// 1-based optimizer round index.
    pub round: usize,
    /// Simulations consumed after this round.
    pub sims_used: usize,
    /// Best FoM seen so far after this round.
    pub best_fom: f64,
    /// Critic training-loss trajectory of this round (scaled units, one
    /// entry per training step, members concatenated for ensembles).
    pub critic_loss: Vec<f64>,
    /// Per-actor losses and proposal quality.
    pub actors: Vec<ActorRound>,
    /// Elite-set stats (the shared set, or actor 0's set for
    /// individual-elite variants).
    pub elite: EliteStats,
    /// Engine counter deltas for this round.
    pub engine: CounterSnapshot,
}

/// One near-sampling round (Algorithm 2).
#[derive(Debug, Clone, PartialEq)]
pub struct NearSamplingRecord {
    /// 1-based optimizer round index.
    pub round: usize,
    /// Simulations consumed after this round.
    pub sims_used: usize,
    /// Why near-sampling triggered (currently always `"period"`: specs
    /// met, critic trained, and `t` a multiple of `T_NS`).
    pub trigger: String,
    /// Candidates drawn around the incumbent (paper: 2000).
    pub n_candidates: usize,
    /// Critic-predicted FoM of the chosen candidate.
    pub predicted_fom: f64,
    /// Simulated FoM of the chosen candidate.
    pub simulated_fom: f64,
    /// Incumbent best FoM before this round.
    pub incumbent_fom: f64,
    /// Whether the candidate beat the incumbent (accept decision).
    pub accepted: bool,
    /// Critic-rank → simulated-FoM Spearman correlation over the most
    /// recent simulated designs (`NaN` when undefined).
    pub spearman: f64,
    /// Sample size behind [`NearSamplingRecord::spearman`].
    pub fidelity_n: usize,
    /// Engine counter deltas for this round.
    pub engine: CounterSnapshot,
}

/// Run summary written once at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEnd {
    /// Total optimizer rounds executed.
    pub rounds: usize,
    /// Total optimization simulations consumed.
    pub sims: usize,
    /// Best FoM over the whole run.
    pub best_fom: f64,
    /// Whether any design met every spec.
    pub success: bool,
    /// Wall-clock total, seconds.
    pub total_s: f64,
    /// Time spent training networks, seconds.
    pub training_s: f64,
    /// Time spent in circuit simulations, seconds.
    pub simulation_s: f64,
    /// Time spent in near-sampling proposal generation, seconds.
    pub near_sampling_s: f64,
    /// Engine counter deltas for the whole run.
    pub engine: CounterSnapshot,
}

impl RunEnd {
    /// Zeroes the wall-clock fields (`total_s` and the three phase
    /// times), the only ones that may differ between two runs that must
    /// otherwise match byte for byte.
    pub fn zero_timing(&mut self) {
        self.total_s = 0.0;
        self.training_s = 0.0;
        self.simulation_s = 0.0;
        self.near_sampling_s = 0.0;
    }
}

/// Engine-level aggregate written by the harness (per method): span
/// totals, counters and the metrics-registry dump.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRecord {
    /// What the aggregate covers, e.g. a method name.
    pub label: String,
    /// Per-phase wall time `(phase, seconds)`, summed across workers.
    pub spans: Vec<(String, f64)>,
    /// Engine counters for the labelled scope.
    pub counters: CounterSnapshot,
    /// Metrics-registry snapshot (engine-lifetime values).
    pub metrics: Vec<MetricSnapshot>,
}

/// One journal line.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Run manifest (first line of a run's journal).
    Manifest(Manifest),
    /// Actor-critic round.
    Round(RoundRecord),
    /// Near-sampling round.
    NearSampling(NearSamplingRecord),
    /// Run summary (last line of a run's journal).
    RunEnd(RunEnd),
    /// Harness-level engine aggregate.
    Engine(EngineRecord),
}

impl Record {
    /// The record's kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Record::Manifest(_) => "manifest",
            Record::Round(_) => "round",
            Record::NearSampling(_) => "near_sampling",
            Record::RunEnd(_) => "run_end",
            Record::Engine(_) => "engine",
        }
    }

    /// Serializes to one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut fields: Vec<(&str, Json)> = vec![
            ("record", Json::Str(self.kind().to_string())),
            ("v", Json::num_u(u64::from(SCHEMA_VERSION))),
        ];
        match self {
            Record::Manifest(m) => {
                fields.push(("label", Json::Str(m.label.clone())));
                fields.push(("problem", Json::Str(m.problem.clone())));
                fields.push(("dim", Json::num_u(m.dim as u64)));
                fields.push(("num_metrics", Json::num_u(m.num_metrics as u64)));
                fields.push(("seed", Json::Str(m.seed.to_string())));
                fields.push(("budget", Json::num_u(m.budget as u64)));
                fields.push(("init_size", Json::num_u(m.init_size as u64)));
                fields.push(("jobs", Json::num_u(m.jobs as u64)));
                fields.push(("version", Json::Str(m.version.clone())));
                fields.push(("build", Json::Str(m.build.clone())));
                fields.push(("config", m.config.clone()));
            }
            Record::Round(r) => {
                fields.push(("round", Json::num_u(r.round as u64)));
                fields.push(("sims_used", Json::num_u(r.sims_used as u64)));
                fields.push(("best_fom", Json::Num(r.best_fom)));
                fields.push((
                    "critic_loss",
                    Json::Arr(r.critic_loss.iter().map(|&v| Json::Num(v)).collect()),
                ));
                fields.push((
                    "actors",
                    Json::Arr(
                        r.actors
                            .iter()
                            .map(|a| {
                                Json::obj(vec![
                                    ("id", Json::num_u(a.id as u64)),
                                    ("loss", Json::Num(a.loss)),
                                    ("predicted_fom", Json::Num(a.predicted_fom)),
                                    ("simulated_fom", Json::Num(a.simulated_fom)),
                                    ("feasible", Json::Bool(a.feasible)),
                                ])
                            })
                            .collect(),
                    ),
                ));
                fields.push(("elite", elite_to_json(&r.elite)));
                fields.push(("engine", counters_to_json(&r.engine)));
            }
            Record::NearSampling(r) => {
                fields.push(("round", Json::num_u(r.round as u64)));
                fields.push(("sims_used", Json::num_u(r.sims_used as u64)));
                fields.push(("trigger", Json::Str(r.trigger.clone())));
                fields.push(("n_candidates", Json::num_u(r.n_candidates as u64)));
                fields.push(("predicted_fom", Json::Num(r.predicted_fom)));
                fields.push(("simulated_fom", Json::Num(r.simulated_fom)));
                fields.push(("incumbent_fom", Json::Num(r.incumbent_fom)));
                fields.push(("accepted", Json::Bool(r.accepted)));
                fields.push(("spearman", Json::Num(r.spearman)));
                fields.push(("fidelity_n", Json::num_u(r.fidelity_n as u64)));
                fields.push(("engine", counters_to_json(&r.engine)));
            }
            Record::RunEnd(r) => {
                fields.push(("rounds", Json::num_u(r.rounds as u64)));
                fields.push(("sims", Json::num_u(r.sims as u64)));
                fields.push(("best_fom", Json::Num(r.best_fom)));
                fields.push(("success", Json::Bool(r.success)));
                fields.push(("total_s", Json::Num(r.total_s)));
                fields.push(("training_s", Json::Num(r.training_s)));
                fields.push(("simulation_s", Json::Num(r.simulation_s)));
                fields.push(("near_sampling_s", Json::Num(r.near_sampling_s)));
                fields.push(("engine", counters_to_json(&r.engine)));
            }
            Record::Engine(r) => {
                fields.push(("label", Json::Str(r.label.clone())));
                fields.push((
                    "spans",
                    Json::Arr(
                        r.spans
                            .iter()
                            .map(|(name, secs)| {
                                Json::Arr(vec![Json::Str(name.clone()), Json::Num(*secs)])
                            })
                            .collect(),
                    ),
                ));
                fields.push(("counters", counters_to_json(&r.counters)));
                fields.push((
                    "metrics",
                    Json::Arr(r.metrics.iter().map(metric_to_json).collect()),
                ));
            }
        }
        Json::obj(fields).to_string()
    }

    /// Parses one JSONL line back into a typed record.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field on malformed input or
    /// an unsupported schema version.
    pub fn parse(line: &str) -> Result<Record, String> {
        let v = Json::parse(line)?;
        let version = field(&v, "v")?.as_u64().ok_or("version must be a number")?;
        if version != u64::from(SCHEMA_VERSION) {
            return Err(format!(
                "unsupported schema version {version} (reader supports {SCHEMA_VERSION})"
            ));
        }
        let kind = field(&v, "record")?
            .as_str()
            .ok_or("record tag must be a string")?;
        match kind {
            "manifest" => Ok(Record::Manifest(Manifest {
                label: str_field(&v, "label")?,
                problem: str_field(&v, "problem")?,
                dim: usize_field(&v, "dim")?,
                num_metrics: usize_field(&v, "num_metrics")?,
                seed: str_field(&v, "seed")?
                    .parse()
                    .map_err(|_| "seed must be a u64 string".to_string())?,
                budget: usize_field(&v, "budget")?,
                init_size: usize_field(&v, "init_size")?,
                jobs: usize_field(&v, "jobs")?,
                version: str_field(&v, "version")?,
                build: str_field(&v, "build")?,
                config: field(&v, "config")?.clone(),
            })),
            "round" => Ok(Record::Round(RoundRecord {
                round: usize_field(&v, "round")?,
                sims_used: usize_field(&v, "sims_used")?,
                best_fom: f64_field(&v, "best_fom")?,
                critic_loss: f64_arr_field(&v, "critic_loss")?,
                actors: field(&v, "actors")?
                    .as_arr()
                    .ok_or("actors must be an array")?
                    .iter()
                    .map(|a| {
                        Ok(ActorRound {
                            id: usize_field(a, "id")?,
                            loss: f64_field(a, "loss")?,
                            predicted_fom: f64_field(a, "predicted_fom")?,
                            simulated_fom: f64_field(a, "simulated_fom")?,
                            feasible: bool_field(a, "feasible")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                elite: elite_from_json(field(&v, "elite")?)?,
                engine: counters_from_json(field(&v, "engine")?)?,
            })),
            "near_sampling" => Ok(Record::NearSampling(NearSamplingRecord {
                round: usize_field(&v, "round")?,
                sims_used: usize_field(&v, "sims_used")?,
                trigger: str_field(&v, "trigger")?,
                n_candidates: usize_field(&v, "n_candidates")?,
                predicted_fom: f64_field(&v, "predicted_fom")?,
                simulated_fom: f64_field(&v, "simulated_fom")?,
                incumbent_fom: f64_field(&v, "incumbent_fom")?,
                accepted: bool_field(&v, "accepted")?,
                spearman: f64_field(&v, "spearman")?,
                fidelity_n: usize_field(&v, "fidelity_n")?,
                engine: counters_from_json(field(&v, "engine")?)?,
            })),
            "run_end" => Ok(Record::RunEnd(RunEnd {
                rounds: usize_field(&v, "rounds")?,
                sims: usize_field(&v, "sims")?,
                best_fom: f64_field(&v, "best_fom")?,
                success: bool_field(&v, "success")?,
                total_s: f64_field(&v, "total_s")?,
                training_s: f64_field(&v, "training_s")?,
                simulation_s: f64_field(&v, "simulation_s")?,
                near_sampling_s: f64_field(&v, "near_sampling_s")?,
                engine: counters_from_json(field(&v, "engine")?)?,
            })),
            "engine" => Ok(Record::Engine(EngineRecord {
                label: str_field(&v, "label")?,
                spans: field(&v, "spans")?
                    .as_arr()
                    .ok_or("spans must be an array")?
                    .iter()
                    .map(|pair| {
                        let items = pair.as_arr().ok_or("span entry must be a pair")?;
                        match items {
                            [Json::Str(name), secs] => Ok((
                                name.clone(),
                                secs.as_f64().ok_or("span seconds must be a number")?,
                            )),
                            _ => Err("span entry must be [name, seconds]".to_string()),
                        }
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                counters: counters_from_json(field(&v, "counters")?)?,
                metrics: field(&v, "metrics")?
                    .as_arr()
                    .ok_or("metrics must be an array")?
                    .iter()
                    .map(metric_from_json)
                    .collect::<Result<Vec<_>, String>>()?,
            })),
            other => Err(format!("unknown record kind {other:?}")),
        }
    }
}

fn elite_to_json(e: &EliteStats) -> Json {
    Json::obj(vec![
        ("size", Json::num_u(e.size as u64)),
        ("refreshed", Json::num_u(e.refreshed as u64)),
        ("volume", Json::Num(e.volume)),
        ("diameter", Json::Num(e.diameter)),
        ("fom_spread", Json::Num(e.fom_spread)),
    ])
}

fn elite_from_json(v: &Json) -> Result<EliteStats, String> {
    Ok(EliteStats {
        size: usize_field(v, "size")?,
        refreshed: usize_field(v, "refreshed")?,
        volume: f64_field(v, "volume")?,
        diameter: f64_field(v, "diameter")?,
        fom_spread: f64_field(v, "fom_spread")?,
    })
}

fn counters_to_json(c: &CounterSnapshot) -> Json {
    Json::obj(vec![
        ("sims", Json::num_u(c.sims)),
        ("cache_hits", Json::num_u(c.cache_hits)),
        ("cache_misses", Json::num_u(c.cache_misses)),
        ("retries", Json::num_u(c.retries)),
        ("panics", Json::num_u(c.panics)),
        ("timeouts", Json::num_u(c.timeouts)),
        ("non_finite", Json::num_u(c.non_finite)),
        ("failures", Json::num_u(c.failures)),
    ])
}

fn counters_from_json(v: &Json) -> Result<CounterSnapshot, String> {
    Ok(CounterSnapshot {
        sims: u64_field(v, "sims")?,
        cache_hits: u64_field(v, "cache_hits")?,
        cache_misses: u64_field(v, "cache_misses")?,
        retries: u64_field(v, "retries")?,
        panics: u64_field(v, "panics")?,
        timeouts: u64_field(v, "timeouts")?,
        // Absent in journals written before the counter existed.
        non_finite: if field(v, "non_finite").is_ok() {
            u64_field(v, "non_finite")?
        } else {
            0
        },
        failures: u64_field(v, "failures")?,
    })
}

fn metric_to_json(m: &MetricSnapshot) -> Json {
    match m {
        MetricSnapshot::Counter { name, value } => Json::obj(vec![
            ("kind", Json::Str("counter".into())),
            ("name", Json::Str(name.clone())),
            ("value", Json::num_u(*value)),
        ]),
        MetricSnapshot::Gauge { name, value } => Json::obj(vec![
            ("kind", Json::Str("gauge".into())),
            ("name", Json::Str(name.clone())),
            ("value", Json::Num(*value)),
        ]),
        MetricSnapshot::Histogram(h) => Json::obj(vec![
            ("kind", Json::Str("histogram".into())),
            ("name", Json::Str(h.name.clone())),
            ("count", Json::num_u(h.count)),
            ("invalid", Json::num_u(h.invalid)),
            ("sum", Json::Num(h.sum)),
            ("min", Json::Num(h.min)),
            ("max", Json::Num(h.max)),
            (
                "buckets",
                Json::Arr(
                    h.buckets
                        .iter()
                        .map(|&(upper, n)| Json::Arr(vec![Json::Num(upper), Json::num_u(n)]))
                        .collect(),
                ),
            ),
        ]),
    }
}

fn metric_from_json(v: &Json) -> Result<MetricSnapshot, String> {
    match field(v, "kind")?.as_str() {
        Some("counter") => Ok(MetricSnapshot::Counter {
            name: str_field(v, "name")?,
            value: u64_field(v, "value")?,
        }),
        Some("gauge") => Ok(MetricSnapshot::Gauge {
            name: str_field(v, "name")?,
            value: f64_field(v, "value")?,
        }),
        Some("histogram") => Ok(MetricSnapshot::Histogram(HistogramSnapshot {
            name: str_field(v, "name")?,
            count: u64_field(v, "count")?,
            invalid: u64_field(v, "invalid")?,
            sum: f64_field(v, "sum")?,
            min: f64_field(v, "min")?,
            max: f64_field(v, "max")?,
            buckets: field(v, "buckets")?
                .as_arr()
                .ok_or("buckets must be an array")?
                .iter()
                .map(|pair| {
                    let items = pair.as_arr().ok_or("bucket must be a pair")?;
                    match items {
                        [upper, count] => Ok((
                            upper.as_f64().ok_or("bucket bound must be a number")?,
                            count.as_u64().ok_or("bucket count must be an integer")?,
                        )),
                        _ => Err("bucket must be [upper, count]".to_string()),
                    }
                })
                .collect::<Result<Vec<_>, String>>()?,
        })),
        _ => Err("metric kind must be counter|gauge|histogram".to_string()),
    }
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} must be a number"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} must be a non-negative integer"))
}

fn usize_field(v: &Json, key: &str) -> Result<usize, String> {
    u64_field(v, key).map(|x| x as usize)
}

fn bool_field(v: &Json, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field {key:?} must be a bool"))
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field {key:?} must be a string"))
}

fn f64_arr_field(v: &Json, key: &str) -> Result<Vec<f64>, String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field {key:?} must be an array"))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("field {key:?} must contain numbers"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counters() -> CounterSnapshot {
        CounterSnapshot {
            sims: 12,
            cache_hits: 3,
            cache_misses: 9,
            retries: 1,
            panics: 0,
            timeouts: 0,
            non_finite: 2,
            failures: 0,
        }
    }

    /// One of every record kind, exercising every field.
    fn samples() -> Vec<Record> {
        vec![
            Record::Manifest(Manifest {
                label: "MA-Opt".into(),
                problem: "Two-stage OTA".into(),
                dim: 16,
                num_metrics: 5,
                seed: u64::MAX - 3, // would not survive an f64 round-trip
                budget: 200,
                init_size: 100,
                jobs: 4,
                version: "0.1.0".into(),
                build: "release".into(),
                config: Json::obj(vec![
                    ("n_actors", Json::num_u(3)),
                    ("near_sampling", Json::Bool(true)),
                    ("delta", Json::Num(0.05)),
                ]),
            }),
            Record::Round(RoundRecord {
                round: 4,
                sims_used: 12,
                best_fom: 0.125,
                critic_loss: vec![0.9, 0.5, 0.25],
                actors: vec![
                    ActorRound {
                        id: 0,
                        loss: 0.75,
                        predicted_fom: 0.5,
                        simulated_fom: 0.625,
                        feasible: true,
                    },
                    ActorRound {
                        id: 1,
                        loss: 1.5,
                        predicted_fom: 0.25,
                        simulated_fom: f64::NAN,
                        feasible: false,
                    },
                ],
                elite: EliteStats {
                    size: 10,
                    refreshed: 2,
                    volume: 1e-6,
                    diameter: 0.375,
                    fom_spread: 0.5,
                },
                engine: sample_counters(),
            }),
            Record::NearSampling(NearSamplingRecord {
                round: 5,
                sims_used: 13,
                trigger: "period".into(),
                n_candidates: 2000,
                predicted_fom: 0.1,
                simulated_fom: 0.11,
                incumbent_fom: 0.125,
                accepted: true,
                spearman: 0.875,
                fidelity_n: 64,
                engine: sample_counters(),
            }),
            Record::RunEnd(RunEnd {
                rounds: 70,
                sims: 200,
                best_fom: 0.0625,
                success: true,
                total_s: 12.5,
                training_s: 8.0,
                simulation_s: 3.5,
                near_sampling_s: 0.5,
                engine: sample_counters(),
            }),
            Record::Engine(EngineRecord {
                label: "MA-Opt".into(),
                spans: vec![("simulation".into(), 3.5), ("actor_training".into(), 8.0)],
                counters: sample_counters(),
                metrics: vec![
                    MetricSnapshot::Counter {
                        name: "opt.rounds".into(),
                        value: 70,
                    },
                    MetricSnapshot::Gauge {
                        name: "opt.best_fom".into(),
                        value: 0.0625,
                    },
                    MetricSnapshot::Histogram(HistogramSnapshot {
                        name: "exec.sim_seconds".into(),
                        count: 200,
                        invalid: 0,
                        sum: 3.5,
                        min: 0.001,
                        max: 0.5,
                        buckets: vec![(0.01, 150), (0.1, 45), (1.0, 5)],
                    }),
                ],
            }),
        ]
    }

    #[test]
    fn every_record_kind_roundtrips_through_jsonl() {
        for record in samples() {
            let line = record.to_json_line();
            assert!(!line.contains('\n'), "one line per record");
            let back = Record::parse(&line)
                .unwrap_or_else(|e| panic!("{}: {e}\nline: {line}", record.kind()));
            // NaN != NaN, so compare through re-serialization (the schema
            // maps NaN to null deterministically).
            assert_eq!(back.to_json_line(), line, "kind {}", record.kind());
            if record.kind() != "round" {
                assert_eq!(back, record, "kind {}", record.kind());
            }
        }
    }

    #[test]
    fn nan_simulated_fom_survives_as_nan() {
        let Record::Round(r) = &samples()[1] else {
            panic!("expected round sample");
        };
        let line = Record::Round(r.clone()).to_json_line();
        assert!(line.contains("\"simulated_fom\":null"));
        let Record::Round(back) = Record::parse(&line).unwrap() else {
            panic!("expected round back");
        };
        assert!(back.actors[1].simulated_fom.is_nan());
    }

    #[test]
    fn huge_seed_is_exact() {
        let Record::Manifest(m) = &samples()[0] else {
            panic!("expected manifest sample");
        };
        let line = Record::Manifest(m.clone()).to_json_line();
        let Record::Manifest(back) = Record::parse(&line).unwrap() else {
            panic!("expected manifest back");
        };
        assert_eq!(back.seed, u64::MAX - 3);
    }

    #[test]
    fn unknown_version_and_kind_are_rejected() {
        let line = samples()[0].to_json_line().replace("\"v\":1", "\"v\":99");
        assert!(Record::parse(&line).unwrap_err().contains("version"));
        let line = samples()[0]
            .to_json_line()
            .replace("\"record\":\"manifest\"", "\"record\":\"mystery\"");
        assert!(Record::parse(&line).unwrap_err().contains("mystery"));
        assert!(Record::parse("not json").is_err());
    }

    #[test]
    fn zero_timing_keeps_every_other_field() {
        let Some(Record::RunEnd(end)) = samples().into_iter().find(|r| r.kind() == "run_end")
        else {
            panic!("expected a run-end sample");
        };
        assert!(end.total_s > 0.0 && end.training_s > 0.0);
        let mut zeroed = end.clone();
        zeroed.zero_timing();
        assert_eq!(
            zeroed,
            RunEnd {
                total_s: 0.0,
                training_s: 0.0,
                simulation_s: 0.0,
                near_sampling_s: 0.0,
                ..end
            }
        );
    }

    #[test]
    fn readers_ignore_unknown_fields() {
        let mut line = samples()[3].to_json_line();
        line.insert_str(line.len() - 1, ",\"future_field\":[1,2,3]");
        assert!(Record::parse(&line).is_ok(), "append-only schema policy");
    }
}
