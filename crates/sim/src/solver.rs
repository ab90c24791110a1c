//! Linear-solver selection and the reusable Newton workspaces shared by
//! the DC and transient analyses.
//!
//! Two backends solve the Newton systems `J·Δx = −f`:
//!
//! * **Sparse** (default): per-topology symbolic LU (see
//!   [`crate::topology`]) with assembly replayed as flat slot writes and a
//!   pivot-free numeric refactor per iteration. Deterministic: the FP
//!   operation sequence is a pure function of topology, never of values
//!   or thread count.
//! * **Dense**: the original partial-pivoting LU, kept as the reference
//!   the agreement tests compare against ([`SolverKind::Dense`]) and as
//!   the per-iteration fallback when the pivot-free factorization hits a
//!   tiny pivot — so genuinely singular systems surface exactly the same
//!   errors on both backends.
//!
//! Neither backend allocates per iteration in steady state: the dense
//! path reuses its matrix + factor buffers ([`maopt_linalg::Lu::refactor_from`]),
//! the sparse path reuses the CSC value array and factor workspace.

use std::sync::{Arc, OnceLock};

use maopt_linalg::{Complex, Lu, Mat, SparseLu, SparseMat};

use crate::analysis::ac::assemble_ac;
use crate::circuit::Circuit;
use crate::mna::{CSlotStamp, CapSpec, Layout};
use crate::mosfet::MosOp;
use crate::topology::{topology_for, Topology};
use crate::SimError;

/// Which linear solver backs an analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// The sparse path: per-topology symbolic factorization reuse. The
    /// default.
    #[default]
    Sparse,
    /// The dense partial-pivoting path (the test reference).
    Dense,
}

/// Whether an analysis may start Newton from caller-provided state (a
/// reference design's operating point) or extrapolated state (the
/// transient predictor) instead of the cold flat-band guess.
///
/// Warm-starting only changes the Newton *starting point*; a converged
/// solution still satisfies the same tolerance, and the full cold
/// continuation ladder remains the automatic rescue when a warm attempt
/// diverges. `Off` is bitwise identical to the pre-warm-start solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmstartKind {
    /// Honor the `MAOPT_SIM_WARMSTART` environment variable (`on` when
    /// unset). The default.
    #[default]
    Auto,
    /// Warm-starting active regardless of the environment.
    On,
    /// Cold path only.
    Off,
}

impl WarmstartKind {
    /// Resolves to a concrete choice.
    ///
    /// # Panics
    ///
    /// Panics when `MAOPT_SIM_WARMSTART` is set to anything other than
    /// `on` or `off` (misconfiguration must not silently change
    /// performance characteristics).
    pub(crate) fn enabled(self) -> bool {
        match self {
            WarmstartKind::On => true,
            WarmstartKind::Off => false,
            WarmstartKind::Auto => {
                static CHOICE: OnceLock<bool> = OnceLock::new();
                *CHOICE.get_or_init(|| match std::env::var("MAOPT_SIM_WARMSTART") {
                    Err(_) => true,
                    Ok(v) if v.eq_ignore_ascii_case("on") => true,
                    Ok(v) if v.eq_ignore_ascii_case("off") => false,
                    Ok(v) => panic!("MAOPT_SIM_WARMSTART must be `on` or `off`, got `{v}`"),
                })
            }
        }
    }
}

/// Dense matrix + factor buffers, reused across iterations.
#[derive(Debug)]
pub(crate) struct DenseWs {
    pub jac: Mat,
    pub lu: Lu,
}

impl DenseWs {
    pub fn new(n: usize) -> DenseWs {
        DenseWs {
            jac: Mat::zeros(n, n),
            lu: Lu::empty(),
        }
    }
}

/// The Jacobian write target handed to an assembly callback; see
/// [`solve_newton_system`].
pub(crate) enum JacView<'a> {
    /// Stamp into a dense matrix (pre-zeroed).
    Dense(&'a mut Mat),
    /// Stamp into a CSC value array (pre-zeroed) via the topology's slot
    /// maps.
    Sparse {
        vals: &'a mut [f64],
        topo: &'a Topology,
    },
}

/// Per-analysis real solver workspace.
#[derive(Debug)]
pub(crate) enum SolverWs {
    Dense(DenseWs),
    Sparse {
        topo: Arc<Topology>,
        mat: SparseMat<f64>,
        lu: SparseLu<f64>,
        /// Dense retry workspace, created lazily on the first tiny-pivot
        /// event.
        fallback: Option<DenseWs>,
    },
}

impl SolverWs {
    /// Builds the workspace for `kind`, falling back to dense when the
    /// topology admits no symbolic factorization (the dense solve then
    /// reports the structural singularity).
    pub fn new(kind: SolverKind, ckt: &Circuit, layout: &Layout) -> SolverWs {
        if kind == SolverKind::Sparse {
            let topo = topology_for(ckt, layout);
            if let Some(sym) = topo.symbolic.clone() {
                let mat = SparseMat::zeros(Arc::clone(&topo.pattern));
                return SolverWs::Sparse {
                    topo,
                    mat,
                    lu: SparseLu::new(sym),
                    fallback: None,
                };
            }
        }
        SolverWs::Dense(DenseWs::new(layout.n_unknowns))
    }
}

fn singular(analysis: &str) -> SimError {
    SimError::SingularMatrix {
        analysis: analysis.into(),
    }
}

fn fill_neg(f: &[f64], neg_f: &mut Vec<f64>) {
    neg_f.clear();
    neg_f.extend(f.iter().map(|v| -v));
}

/// One Newton linear step: assemble (through the callback), factor, and
/// solve `J·Δx = −f` into `delta`.
///
/// The callback must fill `f` from zero and stamp the Jacobian through
/// the given [`JacView`]; it may be invoked twice (sparse attempt, then
/// dense fallback) and must be idempotent.
pub(crate) fn solve_newton_system(
    ws: &mut SolverWs,
    analysis: &str,
    f: &mut [f64],
    neg_f: &mut Vec<f64>,
    delta: &mut Vec<f64>,
    assemble: &mut dyn FnMut(&mut [f64], JacView<'_>),
) -> Result<(), SimError> {
    match ws {
        SolverWs::Dense(d) => {
            d.jac.fill_zero();
            assemble(f, JacView::Dense(&mut d.jac));
            d.lu.refactor_from(&d.jac).map_err(|_| singular(analysis))?;
            fill_neg(f, neg_f);
            d.lu.solve_into(neg_f, delta)?;
        }
        SolverWs::Sparse {
            topo,
            mat,
            lu,
            fallback,
        } => {
            mat.fill_zero();
            assemble(
                f,
                JacView::Sparse {
                    vals: mat.values_mut(),
                    topo,
                },
            );
            if lu.factor(mat).is_ok() {
                fill_neg(f, neg_f);
                lu.solve_into(neg_f, delta)?;
            } else {
                // The pivot-free elimination hit a tiny pivot: retry this
                // iteration on the dense pivoting solver. A genuinely
                // singular system fails there too, so errors surface
                // identically to the dense backend.
                let d = fallback.get_or_insert_with(|| DenseWs::new(topo.pattern.n()));
                d.jac.fill_zero();
                assemble(f, JacView::Dense(&mut d.jac));
                d.lu.refactor_from(&d.jac).map_err(|_| singular(analysis))?;
                fill_neg(f, neg_f);
                d.lu.solve_into(neg_f, delta)?;
            }
        }
    }
    Ok(())
}

/// Complex sparse workspace for the AC and noise analyses: value array +
/// factor buffers over the *same* per-topology symbolic as the real path.
#[derive(Debug)]
pub(crate) struct CSparseWs {
    pub topo: Arc<Topology>,
    pub mat: SparseMat<Complex>,
    pub lu: SparseLu<Complex>,
}

impl CSparseWs {
    /// `Some` when `kind` is sparse and the topology admits a
    /// symbolic factorization; `None` sends the caller down the dense
    /// path.
    pub fn new(kind: SolverKind, ckt: &Circuit, layout: &Layout) -> Option<CSparseWs> {
        if kind == SolverKind::Dense {
            return None;
        }
        let topo = topology_for(ckt, layout);
        let sym = topo.symbolic.clone()?;
        Some(CSparseWs {
            mat: SparseMat::zeros(Arc::clone(&topo.pattern)),
            lu: SparseLu::new(sym),
            topo,
        })
    }

    /// Assembles `G + jωC` and refactors in place. Returns `false` on a
    /// tiny pivot, in which case the caller should solve this frequency
    /// densely.
    pub fn factor_at(
        &mut self,
        ckt: &Circuit,
        layout: &Layout,
        mos_ops: &[MosOp],
        caps: &[CapSpec],
        omega: f64,
    ) -> bool {
        self.mat.fill_zero();
        let mut st = CSlotStamp::new(self.mat.values_mut(), &self.topo.ac_slots);
        assemble_ac(ckt, layout, mos_ops, caps, omega, &mut st);
        st.finish();
        self.lu.factor(&self.mat).is_ok()
    }
}
