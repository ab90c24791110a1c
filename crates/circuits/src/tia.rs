//! The three-stage transimpedance amplifier (paper §III-B2).
//!
//! Topology: three cascaded NMOS common-source stages with PMOS
//! current-source loads (biased from a shared PMOS mirror), global
//! resistive feedback `R` from output to input (three inverting stages →
//! negative feedback), a compensation capacitor `Cf` across the middle
//! stage, and a fixed 200 fF photodiode capacitance at the input driven by
//! the signal current source. (With `Cf` in parallel with `R` — the other
//! plausible reading of the schematic — the 80 dBΩ gain and 1 GHz
//! bandwidth specs would be jointly unsatisfiable for any `Cf ≥ 100 fF`:
//! the feedback pole sits at `1/(2πRCf) ≤ 159 MHz`. Hence the
//! compensation-cap placement; see `DESIGN.md`.)
//!
//! Fifteen sized parameters as in Table III: `L1..L5`, `W1..W5` (stage
//! drivers 1–3 = groups 1–3, loads = group 4, bias diode = group 5), `R`,
//! `Cf`, and `N1..N3` (per-stage multipliers applied to driver and load).
//!
//! Metrics (Eq. 8): minimize power; transimpedance DC gain > 80 dBΩ,
//! bandwidth > 1 GHz, input-referred current noise < 10 pA/√Hz.
//! The paper's "unity-gain frequency" constraint is realized as the
//! −3 dB bandwidth of the closed-loop transimpedance — the standard TIA
//! bandwidth figure (documented substitution, `DESIGN.md`).

use maopt_core::{OpState, ParamSpec, SizingProblem, Spec};
use maopt_sim::analysis::ac::AcAnalysis;
use maopt_sim::analysis::dc::DcAnalysis;
use maopt_sim::analysis::measure::Bode;
use maopt_sim::analysis::noise::NoiseAnalysis;
use maopt_sim::{nmos_180nm, pmos_180nm, Circuit, SimError};

use crate::util::{ff, kohm, mos, slot};

const VDD: f64 = 1.8;
const IREF: f64 = 20e-6;
/// Photodiode capacitance at the input node, farads.
const C_PD: f64 = 200e-15;
/// Spot frequency for the input-referred noise metric, hertz.
const F_NOISE: f64 = 1e6;

/// The three-stage TIA sizing problem (15 parameters, Eq. 8 specs).
#[derive(Debug, Clone)]
pub struct ThreeStageTia {
    params: Vec<ParamSpec>,
    specs: Vec<Spec>,
}

#[derive(Debug, Clone)]
struct Sizing {
    l_um: [f64; 5],
    w_um: [f64; 5],
    r_kohm: f64,
    cf_ff: f64,
    n: [f64; 3],
}

impl Default for ThreeStageTia {
    fn default() -> Self {
        ThreeStageTia::new()
    }
}

impl ThreeStageTia {
    /// Creates the problem with the paper's parameter ranges (Table III).
    pub fn new() -> Self {
        let mut params = Vec::with_capacity(15);
        for i in 1..=5 {
            params.push(ParamSpec::linear(&format!("L{i}"), "um", 0.18, 2.0));
        }
        for i in 1..=5 {
            params.push(ParamSpec::linear(&format!("W{i}"), "um", 0.22, 150.0));
        }
        params.push(ParamSpec::log("R", "kohm", 0.1, 100.0));
        params.push(ParamSpec::log("Cf", "fF", 100.0, 2000.0));
        for i in 1..=3 {
            params.push(ParamSpec::integer(&format!("N{i}"), 1, 20));
        }
        let specs = vec![
            Spec::at_least("Transimpedance gain", 1, 80.0),
            Spec::at_least("Bandwidth", 2, 1e9),
            Spec::at_most("Input-referred noise", 3, 10e-12),
        ];
        ThreeStageTia { params, specs }
    }

    fn sizing(&self, x: &[f64]) -> Sizing {
        let p = self.denormalize(x);
        Sizing {
            l_um: [p[0], p[1], p[2], p[3], p[4]],
            w_um: [p[5], p[6], p[7], p[8], p[9]],
            r_kohm: p[10],
            cf_ff: p[11],
            n: [p[12], p[13], p[14]],
        }
    }

    fn build(&self, s: &Sizing) -> Circuit {
        let nmos = nmos_180nm();
        let pmos = pmos_180nm();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let n1 = ckt.node("n1");
        let n2 = ckt.node("n2");
        let out = ckt.node("out");
        let bp = ckt.node("bp");
        let gnd = Circuit::GROUND;

        ckt.vsource("VDD", vdd, gnd, VDD);
        // Signal: photodiode current into the input node.
        ckt.isource_ac("IIN", gnd, inp, 0.0, 1.0);
        ckt.capacitor("CPD", inp, gnd, C_PD);

        // Shared PMOS bias mirror.
        ckt.isource("IB", bp, gnd, IREF);
        ckt.mosfet(
            "MBP",
            bp,
            bp,
            vdd,
            vdd,
            mos(&pmos, s.w_um[4], s.l_um[4], 1.0),
        );

        // Three inverting gain stages.
        let stages = [(inp, n1, 0), (n1, n2, 1), (n2, out, 2)];
        for (g, d, i) in stages {
            ckt.mosfet(
                &format!("M{}", i + 1),
                d,
                g,
                gnd,
                gnd,
                mos(&nmos, s.w_um[i], s.l_um[i], s.n[i]),
            );
            ckt.mosfet(
                &format!("ML{}", i + 1),
                d,
                bp,
                vdd,
                vdd,
                mos(&pmos, s.w_um[3], s.l_um[3], s.n[i]),
            );
        }

        // Global feedback resistor and middle-stage compensation.
        ckt.resistor("RF", out, inp, kohm(s.r_kohm));
        ckt.capacitor("CFB", n2, n1, ff(s.cf_ff));
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

        // Closed-loop transimpedance: V(out) per 1 A of input AC current.
        let freqs = maopt_sim::analysis::ac::log_freqs(1e3, 3e10, 8);
        let ac = AcAnalysis::new(freqs.clone()).run(&ckt, &op)?;
        let bode = Bode::new(freqs, ac.transfer(out));
        let zt_db = bode.dc_gain_db();
        let bw = bode.bw_3db().unwrap_or(0.0);

        // Input-referred noise at the spot frequency: output noise divided
        // by the transimpedance magnitude there.
        let noise =
            NoiseAnalysis::new(vec![F_NOISE * 0.9, F_NOISE, F_NOISE * 1.1]).run(&ckt, &op, out)?;
        let s_out = noise.psd()[1];
        let zt_mag = 10f64.powf(bode.mag_db_at(F_NOISE) / 20.0);
        let in_noise = if zt_mag > 0.0 {
            s_out.sqrt() / zt_mag
        } else {
            1.0
        };

        let state = OpState {
            slots: vec![op.unknowns().to_vec()],
        };
        Ok((vec![power, zt_db, bw, in_noise], state))
    }
}

impl SizingProblem for ThreeStageTia {
    fn name(&self) -> &str {
        "three_stage_tia"
    }

    fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    fn metric_names(&self) -> Vec<String> {
        [
            "power_w",
            "zt_gain_dbohm",
            "bandwidth_hz",
            "input_noise_a_rthz",
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
        vec![1.0, 0.0, 0.0, 1.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reasonable_x() -> Vec<f64> {
        let tia = ThreeStageTia::new();
        let phys = [
            0.25, 0.25, 0.25, 0.5, 0.5, // L1..L5 µm
            30.0, 30.0, 30.0, 15.0, 5.0,   // W1..W5 µm
            20.0,  // R kΩ
            150.0, // Cf fF
            4.0, 4.0, 4.0, // N1..N3
        ];
        tia.params
            .iter()
            .zip(phys)
            .map(|(p, v)| p.normalize(v))
            .collect()
    }

    #[test]
    fn problem_shape_matches_table_iii() {
        let tia = ThreeStageTia::new();
        assert_eq!(tia.dim(), 15);
        assert_eq!(tia.num_metrics(), 4);
        assert_eq!(tia.specs().len(), 3);
        assert_eq!(tia.params()[11].name, "Cf");
        assert_eq!(tia.params()[11].hi, 2000.0);
    }

    #[test]
    fn reasonable_design_behaves_like_a_tia() {
        let tia = ThreeStageTia::new();
        let m = tia.evaluate(&reasonable_x());
        assert_eq!(m.len(), 4);
        assert!(m[0] > 1e-5 && m[0] < 20e-3, "power {}", m[0]);
        // Transimpedance ≈ R_F = 20 kΩ → 86 dBΩ.
        assert!((m[1] - 86.0).abs() < 3.0, "zt {} dBΩ", m[1]);
        assert!(m[2] > 1e7, "bandwidth {}", m[2]);
        // Noise around √(4kT/R_F) ≈ 0.9 pA/√Hz, plus device noise.
        assert!(m[3] > 0.3e-12 && m[3] < 100e-12, "noise {}", m[3]);
    }

    #[test]
    fn larger_feedback_r_means_more_gain_less_bandwidth() {
        let tia = ThreeStageTia::new();
        let mut lo = reasonable_x();
        let mut hi = reasonable_x();
        lo[10] = tia.params()[10].normalize(5.0);
        hi[10] = tia.params()[10].normalize(80.0);
        let m_lo = tia.evaluate(&lo);
        let m_hi = tia.evaluate(&hi);
        assert!(m_hi[1] > m_lo[1] + 10.0, "gain: {} vs {}", m_lo[1], m_hi[1]);
        assert!(m_hi[2] < m_lo[2], "bandwidth: {} vs {}", m_lo[2], m_hi[2]);
    }

    #[test]
    fn feedback_resistor_noise_dominates_small_r() {
        // Very small R_F: input noise ≈ √(4kT/R) grows.
        let tia = ThreeStageTia::new();
        let mut x = reasonable_x();
        x[10] = tia.params()[10].normalize(0.2);
        let m = tia.evaluate(&x);
        let expected = (4.0 * maopt_sim::KT / 200.0_f64).sqrt();
        assert!(
            m[3] > expected * 0.5,
            "noise {} should approach the 4kT/R level {expected}",
            m[3]
        );
    }

    #[test]
    fn failure_metrics_violate_every_spec() {
        let tia = ThreeStageTia::new();
        let f = tia.failure_metrics();
        assert_eq!(f.len(), tia.num_metrics());
        for s in tia.specs() {
            assert!(s.violation(f[s.metric_index]) > 0.0);
        }
    }

    #[test]
    fn extreme_corners_return_finite_metrics() {
        let tia = ThreeStageTia::new();
        for x in [vec![0.0; 15], vec![1.0; 15]] {
            let m = tia.evaluate(&x);
            assert_eq!(m.len(), 4);
            assert!(m.iter().all(|v| v.is_finite()), "{m:?}");
        }
    }
}
