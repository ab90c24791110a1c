//! A folded-cascode OTA sizing problem.
//!
//! **Not part of the paper's evaluation** — included as the extensibility
//! demonstration: a fourth testbench drops into the same
//! [`SizingProblem`] interface without touching the optimizer. The
//! topology is the classic single-ended folded cascode: PMOS input pair
//! folding into an NMOS cascode branch with a cascoded PMOS mirror load —
//! one high-gain stage, inherently better PSRR than the two-stage Miller
//! OTA, but less output swing.
//!
//! Cascode bias voltages are supplied by ideal sources (a standard
//! characterization-testbench simplification); the tail current mirrors an
//! ideal reference.
//!
//! Twelve parameters: `L1..L4`, `W1..W4` (input pair / bottom NMOS
//! sources / NMOS cascodes / PMOS mirror+cascode), `Cf` (output shaping),
//! and the multipliers `N1` (pair), `N2` (cascode branch), `N3` (tail).
//! Constraints follow the Eq. 7 style: gain, UGF, phase margin, swing,
//! noise; target = power.

use maopt_core::{OpState, ParamSpec, SizingProblem, Spec};
use maopt_sim::analysis::ac::AcAnalysis;
use maopt_sim::analysis::dc::DcAnalysis;
use maopt_sim::analysis::measure::Bode;
use maopt_sim::analysis::noise::NoiseAnalysis;
use maopt_sim::{nmos_180nm, pmos_180nm, Circuit, SimError};

use crate::util::{ff, mos, slot};

const VDD: f64 = 1.8;
const VCM: f64 = 0.9;
const IREF: f64 = 20e-6;
const CL: f64 = 5e-12;
const RFB: f64 = 1e9;
const CBIG: f64 = 1.0;
/// NMOS cascode gate bias.
const VB_CASN: f64 = 0.95;
/// PMOS cascode gate bias.
const VB_CASP: f64 = 0.85;

/// The folded-cascode OTA sizing problem (12 parameters).
#[derive(Debug, Clone)]
pub struct FoldedCascodeOta {
    params: Vec<ParamSpec>,
    specs: Vec<Spec>,
}

#[derive(Debug, Clone)]
struct Sizing {
    l_um: [f64; 4],
    w_um: [f64; 4],
    cf_ff: f64,
    n: [f64; 3],
}

impl Default for FoldedCascodeOta {
    fn default() -> Self {
        FoldedCascodeOta::new()
    }
}

impl FoldedCascodeOta {
    /// Creates the problem.
    pub fn new() -> Self {
        let mut params = Vec::with_capacity(12);
        for i in 1..=4 {
            params.push(ParamSpec::linear(&format!("L{i}"), "um", 0.18, 2.0));
        }
        for i in 1..=4 {
            params.push(ParamSpec::linear(&format!("W{i}"), "um", 0.22, 150.0));
        }
        params.push(ParamSpec::log("Cf", "fF", 100.0, 10000.0));
        for i in 1..=3 {
            params.push(ParamSpec::integer(&format!("N{i}"), 1, 20));
        }
        let specs = vec![
            Spec::at_least("DC gain", 1, 60.0),
            Spec::at_least("UGF", 2, 30e6),
            Spec::at_least("Phase margin", 3, 60.0),
            Spec::at_least("Output swing", 4, 0.8),
            Spec::at_most("Output noise", 5, 30e-3),
        ];
        FoldedCascodeOta { params, specs }
    }

    fn sizing(&self, x: &[f64]) -> Sizing {
        let p = self.denormalize(x);
        Sizing {
            l_um: [p[0], p[1], p[2], p[3]],
            w_um: [p[4], p[5], p[6], p[7]],
            cf_ff: p[8],
            n: [p[9], p[10], p[11]],
        }
    }

    fn build(&self, s: &Sizing) -> Circuit {
        let nmos = nmos_180nm();
        let pmos = pmos_180nm();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("inp");
        let fb = ckt.node("fb");
        let tail = ckt.node("tail");
        let f1 = ckt.node("f1");
        let f2 = ckt.node("f2");
        let o1 = ckt.node("o1");
        let out = ckt.node("out");
        let pt = ckt.node("ptail");
        let t1 = ckt.node("t1");
        let t2 = ckt.node("t2");
        let vbn = ckt.node("vbn");
        let vbp = ckt.node("vbp");
        let gnd = Circuit::GROUND;

        ckt.vsource("VDD", vdd, gnd, VDD);
        ckt.vsource_ac("VIN", inp, gnd, VCM, 1.0);
        ckt.vsource("VBN", vbn, gnd, VB_CASN);
        ckt.vsource("VBP", vbp, gnd, VDD - VB_CASP);

        // Tail current: PMOS mirror from an ideal reference.
        ckt.isource("IB", pt, gnd, IREF);
        ckt.mosfet("MTB", pt, pt, vdd, vdd, mos(&pmos, 4.0, 1.0, 1.0));
        ckt.mosfet("MT", tail, pt, vdd, vdd, mos(&pmos, 4.0, 1.0, s.n[2]));

        // PMOS input pair folding into f1/f2.
        ckt.mosfet(
            "M1",
            f1,
            fb,
            tail,
            vdd,
            mos(&pmos, s.w_um[0], s.l_um[0], s.n[0]),
        );
        ckt.mosfet(
            "M2",
            f2,
            inp,
            tail,
            vdd,
            mos(&pmos, s.w_um[0], s.l_um[0], s.n[0]),
        );

        // Bottom NMOS current sources (gate from the NMOS mirror diode).
        let nb = ckt.node("nb");
        ckt.isource("IBN", vdd, nb, IREF);
        ckt.mosfet("MNB", nb, nb, gnd, gnd, mos(&nmos, 2.0, 1.0, 1.0));
        ckt.mosfet(
            "MB1",
            f1,
            nb,
            gnd,
            gnd,
            mos(&nmos, s.w_um[1], s.l_um[1], s.n[1]),
        );
        ckt.mosfet(
            "MB2",
            f2,
            nb,
            gnd,
            gnd,
            mos(&nmos, s.w_um[1], s.l_um[1], s.n[1]),
        );

        // NMOS cascodes up to the outputs.
        ckt.mosfet(
            "MC1",
            o1,
            vbn,
            f1,
            gnd,
            mos(&nmos, s.w_um[2], s.l_um[2], s.n[1]),
        );
        ckt.mosfet(
            "MC2",
            out,
            vbn,
            f2,
            gnd,
            mos(&nmos, s.w_um[2], s.l_um[2], s.n[1]),
        );

        // Cascoded PMOS mirror load: mirror devices at the rail, cascodes
        // below, diode connection closing on the o1 side.
        ckt.mosfet(
            "MM1",
            t1,
            o1,
            vdd,
            vdd,
            mos(&pmos, s.w_um[3], s.l_um[3], s.n[1]),
        );
        ckt.mosfet(
            "MM2",
            t2,
            o1,
            vdd,
            vdd,
            mos(&pmos, s.w_um[3], s.l_um[3], s.n[1]),
        );
        ckt.mosfet(
            "MP1",
            o1,
            vbp,
            t1,
            vdd,
            mos(&pmos, s.w_um[3], s.l_um[3], s.n[1]),
        );
        ckt.mosfet(
            "MP2",
            out,
            vbp,
            t2,
            vdd,
            mos(&pmos, s.w_um[3], s.l_um[3], s.n[1]),
        );

        // Loading and open-loop bias network.
        ckt.capacitor("CF", out, gnd, ff(s.cf_ff));
        ckt.capacitor("CLOAD", out, gnd, CL);
        ckt.resistor("RFB", out, fb, RFB);
        let cmref = ckt.node("cmref");
        ckt.vsource("VCMREF", cmref, gnd, VCM);
        ckt.capacitor("CBIG", fb, cmref, CBIG);
        ckt
    }

    /// Full evaluation with an optional advisory operating-point seed from a
    /// reference design; the single Newton solve is seed slot 0.
    fn try_evaluate_seeded(
        &self,
        x: &[f64],
        seed: Option<&OpState>,
    ) -> Result<(Vec<f64>, OpState), SimError> {
        let s = self.sizing(x);
        let ckt = self.build(&s);
        let op = DcAnalysis::new().run_seeded(&ckt, None, slot(seed, 0))?;
        let out = ckt.find_node("out").expect("out node");

        let vdd_src = ckt.find_element("VDD").expect("VDD");
        let power = VDD * op.branch_current(vdd_src).expect("vdd branch").abs();

        // Swing: both cascode stacks must stay saturated.
        let mc2 = ckt.find_element("MC2").expect("MC2");
        let mp2 = ckt.find_element("MP2").expect("MP2");
        let f2 = ckt.find_node("f2").expect("f2");
        let t2 = ckt.find_node("t2").expect("t2");
        let low_limit = op.voltage(f2) + op.mos_op(mc2).expect("MC2 op").vdsat;
        let high_limit = op.voltage(t2) - op.mos_op(mp2).expect("MP2 op").vdsat;
        let swing = (high_limit - low_limit).max(0.0);

        let freqs = maopt_sim::analysis::ac::log_freqs(1.0, 1e9, 10);
        let ac = AcAnalysis::new(freqs.clone()).run(&ckt, &op)?;
        let bode = Bode::new(freqs, ac.transfer(out));
        let gain_db = bode.dc_gain_db();
        let ugf = bode.unity_gain_freq().unwrap_or(0.0);
        let pm = if ugf > 0.0 {
            bode.phase_margin_deg().unwrap_or(0.0)
        } else {
            0.0
        };

        let noise = NoiseAnalysis::log(1.0, 1e8, 4)
            .run(&ckt, &op, out)?
            .output_rms();

        let state = OpState {
            slots: vec![op.unknowns().to_vec()],
        };
        Ok((vec![power, gain_db, ugf, pm, swing, noise], state))
    }
}

impl SizingProblem for FoldedCascodeOta {
    fn name(&self) -> &str {
        "folded_cascode_ota"
    }

    fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    fn metric_names(&self) -> Vec<String> {
        [
            "power_w",
            "dc_gain_db",
            "ugf_hz",
            "phase_margin_deg",
            "swing_v",
            "noise_vrms",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    fn specs(&self) -> &[Spec] {
        &self.specs
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        self.evaluate_seeded(x, None).0
    }

    fn evaluate_seeded(&self, x: &[f64], seed: Option<&OpState>) -> (Vec<f64>, Option<OpState>) {
        match self.try_evaluate_seeded(x, seed) {
            Ok((m, state)) => (m, Some(state)),
            Err(_) => (self.failure_metrics(), None),
        }
    }

    /// Metric vector reported for a non-convergent sizing.
    fn failure_metrics(&self) -> Vec<f64> {
        vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reasonable_x() -> Vec<f64> {
        let p = FoldedCascodeOta::new();
        let phys = [
            0.5, 1.5, 0.3, 0.5, // L1..L4
            60.0, 8.0, 30.0, 60.0,  // W1..W4
            500.0, // Cf fF
            2.0, 1.0, 2.0, // N1..N3
        ];
        p.params
            .iter()
            .zip(phys)
            .map(|(ps, v)| ps.normalize(v))
            .collect()
    }

    #[test]
    fn problem_shape() {
        let p = FoldedCascodeOta::new();
        assert_eq!(p.dim(), 12);
        assert_eq!(p.num_metrics(), 6);
        assert_eq!(p.specs().len(), 5);
    }

    #[test]
    fn reasonable_design_is_a_high_gain_single_stage() {
        let p = FoldedCascodeOta::new();
        let m = p.evaluate(&reasonable_x());
        assert!(m.iter().all(|v| v.is_finite()), "{m:?}");
        assert!(m[0] > 1e-6 && m[0] < 20e-3, "power {}", m[0]);
        // A cascode stage should reach substantial gain.
        assert!(m[1] > 50.0, "gain {} dB", m[1]);
        assert!(m[2] > 1e5, "ugf {}", m[2]);
        // Single-stage with load at the output: phase margin is high.
        assert!(m[3] > 45.0, "pm {}", m[3]);
        // Cascode swing is limited but positive.
        assert!(m[4] > 0.1 && m[4] < 1.8, "swing {}", m[4]);
    }

    #[test]
    fn extreme_corners_return_finite_metrics() {
        let p = FoldedCascodeOta::new();
        for x in [vec![0.0; 12], vec![1.0; 12]] {
            let m = p.evaluate(&x);
            assert_eq!(m.len(), 6);
            assert!(m.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn failure_metrics_are_infeasible() {
        let p = FoldedCascodeOta::new();
        assert!(!maopt_core::is_feasible(&p.failure_metrics(), p.specs()));
    }
}
