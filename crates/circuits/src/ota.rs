//! The two-stage operational transconductance amplifier (paper §III-B1).
//!
//! Topology: NMOS differential pair (M1/M2) with PMOS current-mirror load
//! (M3/M4), NMOS tail source (M5) mirrored from an ideal-current-biased
//! diode, and a PMOS common-source second stage (M6) with an NMOS sink
//! (M7). Miller compensation `C` with nulling resistor `R` spans the second
//! stage; `Cf` is an additional output shaping capacitor next to the fixed
//! 20 pF load. (The load value is the testbench's severity knob: it was
//! calibrated so the Eq. 7 spec set is *discriminating* at the paper's
//! 200-simulation budget — random sampling and plain BO must not trivially
//! satisfy it. See `DESIGN.md` §5.)
//!
//! Sixteen sized parameters as in Table I: `L1..L5`, `W1..W5`, `R`, `C`,
//! `Cf`, `N1..N3` (multipliers of the pair, the mirror load and the output
//! stage).
//!
//! Metrics (Eq. 7): minimize power; DC gain > 60 dB, CMRR > 80 dB,
//! PSRR > 80 dB, phase margin > 60°, settling < 100 ns, UGF > 30 MHz,
//! output swing > 1.5 V, integrated output noise < 30 mV rms.

use maopt_core::{OpState, ParamSpec, SizingProblem, Spec};
use maopt_sim::analysis::ac::AcAnalysis;
use maopt_sim::analysis::dc::DcAnalysis;
use maopt_sim::analysis::measure::Bode;
use maopt_sim::analysis::noise::NoiseAnalysis;
use maopt_sim::analysis::tran::TranAnalysis;
use maopt_sim::{nmos_180nm, pmos_180nm, Circuit, SimError, Waveform};

use crate::util::{ff, kohm, mos, slot, windowed_settling};

const VDD: f64 = 1.8;
const VCM: f64 = 0.9;
const IREF: f64 = 10e-6;
const CL: f64 = 20e-12;
const RFB: f64 = 1e9;
const CBIG: f64 = 1.0;
/// Input step height for the settling testbench, volts.
const STEP: f64 = 0.2;
/// Step launch time in the settling testbench, seconds.
const T_STEP: f64 = 20e-9;

/// Physical sizing decoded from a normalized design vector.
#[derive(Debug, Clone)]
struct Sizing {
    l_um: [f64; 5],
    w_um: [f64; 5],
    r_kohm: f64,
    c_ff: f64,
    cf_ff: f64,
    n: [f64; 3],
}

/// Which small-signal excitation the main testbench carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcMode {
    /// Differential drive on the non-inverting input.
    Differential,
    /// Common-mode drive on both inputs.
    CommonMode,
    /// Supply (VDD) drive.
    Supply,
}

/// The two-stage OTA sizing problem (16 parameters, Eq. 7 specs).
#[derive(Debug, Clone)]
pub struct TwoStageOta {
    params: Vec<ParamSpec>,
    specs: Vec<Spec>,
}

impl Default for TwoStageOta {
    fn default() -> Self {
        TwoStageOta::new()
    }
}

impl TwoStageOta {
    /// Creates the problem with the paper's parameter ranges (Table I).
    pub fn new() -> Self {
        let mut params = Vec::with_capacity(16);
        for i in 1..=5 {
            params.push(ParamSpec::linear(&format!("L{i}"), "um", 0.18, 2.0));
        }
        for i in 1..=5 {
            params.push(ParamSpec::linear(&format!("W{i}"), "um", 0.22, 150.0));
        }
        params.push(ParamSpec::log("R", "kohm", 0.1, 100.0));
        params.push(ParamSpec::log("C", "fF", 100.0, 2000.0));
        params.push(ParamSpec::log("Cf", "fF", 100.0, 10000.0));
        for i in 1..=3 {
            params.push(ParamSpec::integer(&format!("N{i}"), 1, 20));
        }
        let specs = vec![
            Spec::at_least("DC gain", 1, 60.0),
            Spec::at_least("UGF", 2, 30e6),
            Spec::at_least("Phase margin", 3, 60.0),
            Spec::at_least("CMRR", 4, 80.0),
            Spec::at_least("PSRR", 5, 80.0),
            Spec::at_most("Settling time", 6, 100e-9),
            Spec::at_least("Output swing", 7, 1.5),
            Spec::at_most("Output noise", 8, 30e-3),
        ];
        TwoStageOta { params, specs }
    }

    fn sizing(&self, x: &[f64]) -> Sizing {
        let p = self.denormalize(x);
        Sizing {
            l_um: [p[0], p[1], p[2], p[3], p[4]],
            w_um: [p[5], p[6], p[7], p[8], p[9]],
            r_kohm: p[10],
            c_ff: p[11],
            cf_ff: p[12],
            n: [p[13], p[14], p[15]],
        }
    }

    /// Builds the open-loop biasing testbench (RC feedback trick): the
    /// inverting input is tied to the output through a 1 GΩ resistor and
    /// AC-grounded through a 1 F capacitor to `cmref`.
    fn build_main(&self, s: &Sizing, mode: AcMode) -> Circuit {
        let nmos = nmos_180nm();
        let pmos = pmos_180nm();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("inp"); // non-inverting (gate of M2)
        let fb = ckt.node("fb"); // inverting (gate of M1)
        let tail = ckt.node("tail");
        let d1 = ckt.node("d1");
        let d2 = ckt.node("d2");
        let out = ckt.node("out");
        let bias = ckt.node("bias");
        let cmref = ckt.node("cmref");
        let zn = ckt.node("zn");
        let gnd = Circuit::GROUND;

        let (ac_in, ac_cm, ac_vdd) = match mode {
            AcMode::Differential => (1.0, 0.0, 0.0),
            AcMode::CommonMode => (1.0, 1.0, 0.0),
            AcMode::Supply => (0.0, 0.0, 1.0),
        };
        ckt.vsource_ac("VDD", vdd, gnd, VDD, ac_vdd);
        ckt.vsource_ac("VIN", inp, gnd, VCM, ac_in);
        ckt.vsource_ac("VCMREF", cmref, gnd, VCM, ac_cm);

        // Bias chain: IREF through a diode NMOS sets the mirror gate.
        ckt.isource("IB", vdd, bias, IREF);
        ckt.mosfet("MB", bias, bias, gnd, gnd, mos(&nmos, 2.0, 1.0, 1.0));

        // First stage.
        ckt.mosfet(
            "M5",
            tail,
            bias,
            gnd,
            gnd,
            mos(&nmos, s.w_um[2], s.l_um[2], 1.0),
        );
        ckt.mosfet(
            "M1",
            d1,
            fb,
            tail,
            gnd,
            mos(&nmos, s.w_um[0], s.l_um[0], s.n[0]),
        );
        ckt.mosfet(
            "M2",
            d2,
            inp,
            tail,
            gnd,
            mos(&nmos, s.w_um[0], s.l_um[0], s.n[0]),
        );
        ckt.mosfet(
            "M3",
            d1,
            d1,
            vdd,
            vdd,
            mos(&pmos, s.w_um[1], s.l_um[1], s.n[1]),
        );
        ckt.mosfet(
            "M4",
            d2,
            d1,
            vdd,
            vdd,
            mos(&pmos, s.w_um[1], s.l_um[1], s.n[1]),
        );

        // Second stage with Miller compensation (R in series with C).
        ckt.mosfet(
            "M6",
            out,
            d2,
            vdd,
            vdd,
            mos(&pmos, s.w_um[3], s.l_um[3], s.n[2]),
        );
        ckt.mosfet(
            "M7",
            out,
            bias,
            gnd,
            gnd,
            mos(&nmos, s.w_um[4], s.l_um[4], 1.0),
        );
        ckt.resistor("RZ", d2, zn, kohm(s.r_kohm));
        ckt.capacitor("CC", zn, out, ff(s.c_ff));

        // Output loading.
        ckt.capacitor("CF", out, gnd, ff(s.cf_ff));
        ckt.capacitor("CLOAD", out, gnd, CL);

        // Open-loop bias network.
        ckt.resistor("RFB", out, fb, RFB);
        ckt.capacitor("CBIG", fb, cmref, CBIG);
        ckt
    }

    /// Unity-gain buffer for settling and noise: the inverting input is the
    /// output node itself.
    fn build_buffer(&self, s: &Sizing, step: bool) -> Circuit {
        let nmos = nmos_180nm();
        let pmos = pmos_180nm();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("inp");
        let tail = ckt.node("tail");
        let d1 = ckt.node("d1");
        let d2 = ckt.node("d2");
        let out = ckt.node("out");
        let bias = ckt.node("bias");
        let zn = ckt.node("zn");
        let gnd = Circuit::GROUND;

        ckt.vsource("VDD", vdd, gnd, VDD);
        let vin = ckt.vsource("VIN", inp, gnd, VCM);
        if step {
            ckt.set_waveform(
                vin,
                Waveform::pulse(
                    VCM - STEP / 2.0,
                    VCM + STEP / 2.0,
                    T_STEP,
                    1e-9,
                    1e-9,
                    1.0,
                    f64::INFINITY,
                ),
            );
        }
        ckt.isource("IB", vdd, bias, IREF);
        ckt.mosfet("MB", bias, bias, gnd, gnd, mos(&nmos, 2.0, 1.0, 1.0));
        ckt.mosfet(
            "M5",
            tail,
            bias,
            gnd,
            gnd,
            mos(&nmos, s.w_um[2], s.l_um[2], 1.0),
        );
        // Feedback: gate of M1 (inverting input) is the output.
        ckt.mosfet(
            "M1",
            d1,
            out,
            tail,
            gnd,
            mos(&nmos, s.w_um[0], s.l_um[0], s.n[0]),
        );
        ckt.mosfet(
            "M2",
            d2,
            inp,
            tail,
            gnd,
            mos(&nmos, s.w_um[0], s.l_um[0], s.n[0]),
        );
        ckt.mosfet(
            "M3",
            d1,
            d1,
            vdd,
            vdd,
            mos(&pmos, s.w_um[1], s.l_um[1], s.n[1]),
        );
        ckt.mosfet(
            "M4",
            d2,
            d1,
            vdd,
            vdd,
            mos(&pmos, s.w_um[1], s.l_um[1], s.n[1]),
        );
        ckt.mosfet(
            "M6",
            out,
            d2,
            vdd,
            vdd,
            mos(&pmos, s.w_um[3], s.l_um[3], s.n[2]),
        );
        ckt.mosfet(
            "M7",
            out,
            bias,
            gnd,
            gnd,
            mos(&nmos, s.w_um[4], s.l_um[4], 1.0),
        );
        ckt.resistor("RZ", d2, zn, kohm(s.r_kohm));
        ckt.capacitor("CC", zn, out, ff(s.c_ff));
        ckt.capacitor("CF", out, gnd, ff(s.cf_ff));
        ckt.capacitor("CLOAD", out, gnd, CL);
        ckt
    }

    /// Full evaluation with an optional advisory operating-point seed from a
    /// reference design of the same topology. The three Newton solves map to
    /// seed slots 0 (main bench), 1 (buffer at t = 0) and 2 (noise bench);
    /// the returned [`OpState`] records this design's converged solutions in
    /// the same slot order.
    fn try_evaluate_seeded(
        &self,
        x: &[f64],
        seed: Option<&OpState>,
    ) -> Result<(Vec<f64>, OpState), SimError> {
        let s = self.sizing(x);

        // --- Main testbench: DC op (power, swing) + three AC runs. ---
        let ckt_dm = self.build_main(&s, AcMode::Differential);
        let op = DcAnalysis::new().run_seeded(&ckt_dm, None, slot(seed, 0))?;
        let out = ckt_dm.find_node("out").expect("out node");

        let vdd_src = ckt_dm.find_element("VDD").expect("VDD");
        let power = VDD * op.branch_current(vdd_src).expect("vdd branch").abs();

        // Output swing estimate from the output devices' saturation limits.
        let m6 = ckt_dm.find_element("M6").expect("M6");
        let m7 = ckt_dm.find_element("M7").expect("M7");
        let vdsat6 = op.mos_op(m6).expect("M6 op").vdsat;
        let vdsat7 = op.mos_op(m7).expect("M7 op").vdsat;
        let swing = (VDD - vdsat6 - vdsat7).max(0.0);

        let freqs = maopt_sim::analysis::ac::log_freqs(1.0, 1e9, 10);
        let ac_dm = AcAnalysis::new(freqs.clone()).run(&ckt_dm, &op)?;
        let bode = Bode::new(freqs.clone(), ac_dm.transfer(out));
        let gain_db = bode.dc_gain_db();
        let ugf = bode.unity_gain_freq().unwrap_or(0.0);
        let pm = if ugf > 0.0 {
            bode.phase_margin_deg().unwrap_or(0.0)
        } else {
            0.0
        };

        let lf = vec![1.0, 3.0, 10.0];
        let ckt_cm = self.build_main(&s, AcMode::CommonMode);
        let ac_cm = AcAnalysis::new(lf.clone()).run(&ckt_cm, &op)?;
        let acm_db = 20.0 * ac_cm.voltage(0, out).abs().max(1e-15).log10();
        let cmrr = gain_db - acm_db;

        let ckt_ps = self.build_main(&s, AcMode::Supply);
        let ac_ps = AcAnalysis::new(lf).run(&ckt_ps, &op)?;
        let aps_db = 20.0 * ac_ps.voltage(0, out).abs().max(1e-15).log10();
        let psrr = gain_db - aps_db;

        // --- Buffer testbench: settling + output noise. ---
        let ckt_step = self.build_buffer(&s, true);
        let op_step = DcAnalysis::new().run_seeded(&ckt_step, Some(0.0), slot(seed, 1))?;
        let tran = TranAnalysis::new(400e-9, 1e-9).run_from(&ckt_step, &op_step)?;
        let out_b = ckt_step.find_node("out").expect("out node");
        let settling = windowed_settling(&tran, out_b, T_STEP, 0.01);

        let ckt_noise = self.build_buffer(&s, false);
        let op_n = DcAnalysis::new().run_seeded(&ckt_noise, None, slot(seed, 2))?;
        let noise = NoiseAnalysis::log(1.0, 1e8, 4)
            .run(&ckt_noise, &op_n, ckt_noise.find_node("out").expect("out"))?
            .output_rms();

        let state = OpState {
            slots: vec![
                op.unknowns().to_vec(),
                op_step.unknowns().to_vec(),
                op_n.unknowns().to_vec(),
            ],
        };
        Ok((
            vec![power, gain_db, ugf, pm, cmrr, psrr, settling, swing, noise],
            state,
        ))
    }
}

impl SizingProblem for TwoStageOta {
    fn name(&self) -> &str {
        "two_stage_ota"
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
            "cmrr_db",
            "psrr_db",
            "settling_s",
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

    /// The documented metric vector of a failed (non-convergent) sizing:
    /// huge power, zero gain/bandwidth/margins, unbounded settling/noise.
    fn failure_metrics(&self) -> Vec<f64> {
        vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-tuned sizing that should bias up sanely: moderate pair,
    /// long-ish channels, mid-size compensation.
    fn reasonable_x() -> Vec<f64> {
        let ota = TwoStageOta::new();
        let phys = [
            0.5, 0.5, 1.0, 0.5, 0.5, // L1..L5 µm
            40.0, 60.0, 8.0, 80.0, 20.0,  // W1..W5 µm
            2.0,   // R kΩ
            500.0, // C fF
            300.0, // Cf fF
            2.0, 2.0, 4.0, // N1..N3
        ];
        ota.params
            .iter()
            .zip(phys)
            .map(|(p, v)| p.normalize(v))
            .collect()
    }

    #[test]
    fn problem_shape_matches_table_i() {
        let ota = TwoStageOta::new();
        assert_eq!(ota.dim(), 16);
        assert_eq!(ota.num_metrics(), 9);
        assert_eq!(ota.specs().len(), 8);
        assert_eq!(ota.params()[0].name, "L1");
        assert_eq!(ota.params()[10].name, "R");
        assert_eq!(ota.params()[15].name, "N3");
        // Ranges from Table I.
        assert_eq!(ota.params()[0].lo, 0.18);
        assert_eq!(ota.params()[9].hi, 150.0);
    }

    #[test]
    fn reasonable_design_biases_and_amplifies() {
        let ota = TwoStageOta::new();
        let m = ota.evaluate(&reasonable_x());
        assert_eq!(m.len(), 9);
        // Power: positive, sub-50 mW.
        assert!(m[0] > 1e-6 && m[0] < 50e-3, "power {}", m[0]);
        // An OTA with these sizes must have substantial gain.
        assert!(m[1] > 30.0, "gain {} dB", m[1]);
        // UGF in a plausible band.
        assert!(m[2] > 1e5, "ugf {}", m[2]);
        // Swing below the rail, above zero.
        assert!(m[7] > 0.5 && m[7] < VDD, "swing {}", m[7]);
        // Noise positive and below 1 V rms.
        assert!(m[8] > 0.0 && m[8] < 1.0, "noise {}", m[8]);
    }

    #[test]
    fn settling_time_is_finite_and_recorded() {
        let ota = TwoStageOta::new();
        let m = ota.evaluate(&reasonable_x());
        assert!(m[6] > 0.0 && m[6] <= 400e-9, "settling {}", m[6]);
    }

    #[test]
    fn failure_metrics_violate_every_spec() {
        let ota = TwoStageOta::new();
        let f = ota.failure_metrics();
        assert_eq!(f.len(), ota.num_metrics());
        assert!(!maopt_core::is_feasible(&f, ota.specs()));
        for s in ota.specs() {
            assert!(
                s.violation(f[s.metric_index]) > 0.0,
                "spec {} not violated",
                s.name
            );
        }
    }

    #[test]
    fn tiny_devices_do_not_panic() {
        // The all-zeros corner (minimum geometry everywhere) must return a
        // well-formed metric vector, even if it fails specs.
        let ota = TwoStageOta::new();
        let m = ota.evaluate(&[0.0; 16]);
        assert_eq!(m.len(), 9);
        assert!(m.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn bigger_output_stage_burns_more_power() {
        let ota = TwoStageOta::new();
        let mut x = reasonable_x();
        let base = ota.evaluate(&x)[0];
        // Crank the output-stage multiplier N3 (last parameter).
        x[15] = 1.0;
        let big = ota.evaluate(&x)[0];
        assert!(
            big > base,
            "more output fingers must draw more power: {base} -> {big}"
        );
    }
}
