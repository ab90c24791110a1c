//! The 3.3 V → 1.8 V low-dropout regulator (paper §III-B3).
//!
//! Topology: five-transistor NMOS-input error amplifier (M1/M2 pair,
//! M3/M4 PMOS mirror, M5 tail), an NMOS gate-driver stage (M6) with a PMOS
//! current-source pull-up, a large PMOS pass device, a resistive feedback
//! divider `R1/R2` against a 0.9 V reference, a compensation capacitor `C`
//! across the pass device, and a fixed 1 µF output capacitor.
//!
//! Sixteen sized parameters as in Table V: `L1..L5`, `W1..W5` (pair,
//! mirror, tail, pass, driver), `R1`, `R2`, `C`, `N1..N3` (multipliers of
//! the pair, the pass device and the driver).
//!
//! Metrics (Eq. 9): minimize the quiescent current at a 50 mA load;
//! 1.75 V < V_OUT < 1.85 V, load regulation < 0.1 mV/mA, line regulation
//! < 0.1 %/V, four transient settling times < 35 µs (load steps
//! 0.1 µA ↔ 150 mA, line steps 2.0 V ↔ 3.3 V), PSRR > 60 dB.

use maopt_core::{OpState, ParamSpec, SizingProblem, Spec};
use maopt_sim::analysis::ac::AcAnalysis;
use maopt_sim::analysis::dc::DcAnalysis;
use maopt_sim::analysis::tran::{Integrator, TranAnalysis};
use maopt_sim::{nmos_180nm, pmos_180nm, Circuit, ElementId, SimError, Waveform};

use crate::util::{ff, kohm, mos, slot, windowed_settling_abs};

const VIN_NOM: f64 = 3.3;
const VIN_LOW: f64 = 2.0;
const VREF: f64 = 0.9;
const IREF: f64 = 10e-6;
const C_OUT: f64 = 1e-6;
/// Equivalent series resistance of the output capacitor, ohms. The ESR zero
/// at `1/(2πC·ESR)` ≈ 320 kHz stabilizes the regulation loop, as it does
/// for real LDOs with electrolytic/tantalum output capacitors.
const ESR: f64 = 0.5;
const I_LOAD_NOM: f64 = 50e-3;
const I_LOAD_MIN: f64 = 0.1e-6;
const I_LOAD_MAX: f64 = 150e-3;
/// Step launch time in the transient testbenches, seconds.
const T_STEP: f64 = 5e-6;
/// Edge ramp time of the load/line steps, seconds.
const T_EDGE: f64 = 1e-6;
/// Transient record length, seconds.
const T_STOP: f64 = 65e-6;

/// The LDO regulator sizing problem (16 parameters, Eq. 9 specs).
#[derive(Debug, Clone)]
pub struct LdoRegulator {
    params: Vec<ParamSpec>,
    specs: Vec<Spec>,
}

#[derive(Debug, Clone)]
struct Sizing {
    l_um: [f64; 5],
    w_um: [f64; 5],
    r1_kohm: f64,
    r2_kohm: f64,
    c_ff: f64,
    n: [f64; 3],
}

/// Which transient stimulus the testbench carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TranMode {
    LoadUp,
    LoadDown,
    LineUp,
    LineDown,
}

impl Default for LdoRegulator {
    fn default() -> Self {
        LdoRegulator::new()
    }
}

impl LdoRegulator {
    /// Creates the problem with the paper's parameter ranges (Table V).
    pub fn new() -> Self {
        let mut params = Vec::with_capacity(16);
        for i in 1..=5 {
            params.push(ParamSpec::linear(&format!("L{i}"), "um", 0.32, 3.0));
        }
        for i in 1..=5 {
            params.push(ParamSpec::linear(&format!("W{i}"), "um", 0.22, 200.0));
        }
        params.push(ParamSpec::log("R1", "kohm", 1.0, 100.0));
        params.push(ParamSpec::log("R2", "kohm", 1.0, 100.0));
        params.push(ParamSpec::log("C", "fF", 100.0, 2000.0));
        for i in 1..=3 {
            params.push(ParamSpec::integer(&format!("N{i}"), 1, 20));
        }
        let specs = vec![
            Spec::at_least("Vout lower", 1, 1.75),
            Spec::at_most("Vout upper", 1, 1.85),
            Spec::at_most("Load regulation", 2, 0.1), // V/A ≡ mV/mA
            Spec::at_most("Line regulation", 3, 0.1), // %/V
            Spec::at_most("T load up", 4, 35e-6),
            Spec::at_most("T load down", 5, 35e-6),
            Spec::at_most("T line up", 6, 35e-6),
            Spec::at_most("T line down", 7, 35e-6),
            Spec::at_least("PSRR", 8, 60.0),
        ];
        LdoRegulator { params, specs }
    }

    fn sizing(&self, x: &[f64]) -> Sizing {
        let p = self.denormalize(x);
        Sizing {
            l_um: [p[0], p[1], p[2], p[3], p[4]],
            w_um: [p[5], p[6], p[7], p[8], p[9]],
            r1_kohm: p[10],
            r2_kohm: p[11],
            c_ff: p[12],
            n: [p[13], p[14], p[15]],
        }
    }

    /// Builds the regulator with given DC supply / load values; returns the
    /// circuit plus the supply and load element ids for later overrides.
    fn build(
        &self,
        s: &Sizing,
        vin: f64,
        iload: f64,
        ac_on_vin: bool,
    ) -> (Circuit, ElementId, ElementId) {
        let nmos = nmos_180nm();
        let pmos = pmos_180nm();
        let mut ckt = Circuit::new();
        let vin_n = ckt.node("vin");
        let vref_n = ckt.node("vref");
        let fb = ckt.node("fb");
        let tail = ckt.node("tail");
        let d1 = ckt.node("d1");
        let d2 = ckt.node("d2");
        let gate = ckt.node("gate");
        let vout = ckt.node("vout");
        let bias = ckt.node("bias");
        let bp = ckt.node("bp");
        let gnd = Circuit::GROUND;

        let vin_src = if ac_on_vin {
            ckt.vsource_ac("VIN", vin_n, gnd, vin, 1.0)
        } else {
            ckt.vsource("VIN", vin_n, gnd, vin)
        };
        ckt.vsource("VREF", vref_n, gnd, VREF);

        // NMOS bias chain for the tail.
        ckt.isource("IB", vin_n, bias, IREF);
        ckt.mosfet("MB", bias, bias, gnd, gnd, mos(&nmos, 2.0, 1.0, 1.0));
        // PMOS bias chain for the driver's pull-up.
        ckt.isource("IBP", bp, gnd, IREF);
        ckt.mosfet("MBP", bp, bp, vin_n, vin_n, mos(&pmos, 4.0, 1.0, 1.0));

        // Error amplifier: VREF on M1 (diode side), feedback on M2.
        ckt.mosfet(
            "M5",
            tail,
            bias,
            gnd,
            gnd,
            mos(&nmos, s.w_um[2], s.l_um[2], 2.0),
        );
        ckt.mosfet(
            "M1",
            d1,
            vref_n,
            tail,
            gnd,
            mos(&nmos, s.w_um[0], s.l_um[0], s.n[0]),
        );
        ckt.mosfet(
            "M2",
            d2,
            fb,
            tail,
            gnd,
            mos(&nmos, s.w_um[0], s.l_um[0], s.n[0]),
        );
        ckt.mosfet(
            "M3",
            d1,
            d1,
            vin_n,
            vin_n,
            mos(&pmos, s.w_um[1], s.l_um[1], 1.0),
        );
        ckt.mosfet(
            "M4",
            d2,
            d1,
            vin_n,
            vin_n,
            mos(&pmos, s.w_um[1], s.l_um[1], 1.0),
        );

        // Gate driver: NMOS common source with PMOS current-source pull-up.
        ckt.mosfet(
            "M6",
            gate,
            d2,
            gnd,
            gnd,
            mos(&nmos, s.w_um[4], s.l_um[4], s.n[2]),
        );
        ckt.mosfet("MLG", gate, bp, vin_n, vin_n, mos(&pmos, 8.0, 1.0, 2.0));

        // Pass device and compensation.
        ckt.mosfet(
            "MP",
            vout,
            gate,
            vin_n,
            vin_n,
            mos(&pmos, s.w_um[3], s.l_um[3], s.n[1]),
        );
        ckt.capacitor("CC", gate, vout, ff(s.c_ff));

        // Divider, output cap and load.
        ckt.resistor("R1", vout, fb, kohm(s.r1_kohm));
        ckt.resistor("R2", fb, gnd, kohm(s.r2_kohm));
        let vesr = ckt.node("vesr");
        ckt.resistor("RESR", vout, vesr, ESR);
        ckt.capacitor("COUT", vesr, gnd, C_OUT);
        let load = ckt.isource("ILOAD", vout, gnd, iload);
        (ckt, vin_src, load)
    }

    /// Runs one transient testbench, returning the settling time of the
    /// output after the step.
    fn settling(&self, s: &Sizing, mode: TranMode, guess: &[f64]) -> Result<f64, SimError> {
        let (vin0, iload0) = match mode {
            TranMode::LoadUp => (VIN_NOM, I_LOAD_MIN),
            TranMode::LoadDown => (VIN_NOM, I_LOAD_MAX),
            TranMode::LineUp => (VIN_LOW, I_LOAD_NOM),
            TranMode::LineDown => (VIN_NOM, I_LOAD_NOM),
        };
        let (mut ckt, vin_src, load) = self.build(s, vin0, iload0, false);
        match mode {
            TranMode::LoadUp => ckt.set_waveform(
                load,
                Waveform::pwl(vec![(T_STEP, I_LOAD_MIN), (T_STEP + T_EDGE, I_LOAD_MAX)]),
            ),
            TranMode::LoadDown => ckt.set_waveform(
                load,
                Waveform::pwl(vec![(T_STEP, I_LOAD_MAX), (T_STEP + T_EDGE, I_LOAD_MIN)]),
            ),
            TranMode::LineUp => ckt.set_waveform(
                vin_src,
                Waveform::pwl(vec![(T_STEP, VIN_LOW), (T_STEP + T_EDGE, VIN_NOM)]),
            ),
            TranMode::LineDown => ckt.set_waveform(
                vin_src,
                Waveform::pwl(vec![(T_STEP, VIN_NOM), (T_STEP + T_EDGE, VIN_LOW)]),
            ),
        }
        // Warm-start the t = 0 operating point from the nominal solution;
        // cold source-stepping is ill-posed with an ideal current-source load.
        let op0 = DcAnalysis::new().run_at_time(&ckt, Some(0.0), Some(guess))?;
        // Backward Euler damps the trapezoidal rule's numerical ringing on
        // this stiff loop (1 µF against MHz-scale loop dynamics).
        let res = TranAnalysis::new(T_STOP, 0.25e-6)
            .with_method(Integrator::BackwardEuler)
            .run_from(&ckt, &op0)?;
        let vout = ckt.find_node("vout").expect("vout node");
        // Settled once the output stays within ±1% of the 1.8 V target.
        Ok(windowed_settling_abs(&res, vout, T_STEP, 0.018))
    }

    /// Full evaluation with an optional advisory operating-point seed. Only
    /// the *nominal* DC solve (slot 0) takes a cross-design seed — every
    /// corner and transient solve already warm-starts from the nominal
    /// solution of *this* design, which dominates any cross-design seed.
    fn try_evaluate_seeded(
        &self,
        x: &[f64],
        seed: Option<&OpState>,
    ) -> Result<(Vec<f64>, OpState), SimError> {
        let s = self.sizing(x);

        // Nominal operating point: quiescent current and V_OUT.
        let (ckt, vin_src, _) = self.build(&s, VIN_NOM, I_LOAD_NOM, false);
        let op = DcAnalysis::new().run_seeded(&ckt, None, slot(seed, 0))?;
        let vout_n = ckt.find_node("vout").expect("vout node");
        let vout = op.voltage(vout_n);
        let supplied = op.branch_current(vin_src).expect("vin branch").abs();
        let iq = (supplied - I_LOAD_NOM).max(0.0);

        // All corner operating points warm-start from the nominal solution:
        // cold continuation is ill-posed with an ideal current-source load.
        let guess = op.unknowns().to_vec();
        let corner_vout = |vin: f64, iload: f64| -> Result<f64, SimError> {
            let (ckt, _, _) = self.build(&s, vin, iload, false);
            let op = DcAnalysis::new().run_at_time(&ckt, None, Some(&guess))?;
            Ok(op.voltage(ckt.find_node("vout").expect("vout")))
        };

        // Load regulation from min/max load operating points.
        let v_lo = corner_vout(VIN_NOM, I_LOAD_MIN)?;
        let v_hi = corner_vout(VIN_NOM, I_LOAD_MAX)?;
        let load_reg = ((v_lo - v_hi) / (I_LOAD_MAX - I_LOAD_MIN)).abs();

        // Line regulation from 3.0 / 3.6 V supplies at nominal load.
        let v_l3 = corner_vout(3.0, I_LOAD_NOM)?;
        let v_l36 = corner_vout(3.6, I_LOAD_NOM)?;
        let line_reg = ((v_l36 - v_l3) / vout.max(0.1) / 0.6 * 100.0).abs();

        // PSRR at 1 kHz.
        let (ckt_ps, _, _) = self.build(&s, VIN_NOM, I_LOAD_NOM, true);
        let ac = AcAnalysis::new(vec![1e3]).run(&ckt_ps, &op)?;
        let psrr = -20.0
            * ac.voltage(0, ckt_ps.find_node("vout").expect("vout"))
                .abs()
                .max(1e-12)
                .log10();

        // Four transient settling times.
        let tl_up = self.settling(&s, TranMode::LoadUp, &guess)?;
        let tl_dn = self.settling(&s, TranMode::LoadDown, &guess)?;
        let tv_up = self.settling(&s, TranMode::LineUp, &guess)?;
        let tv_dn = self.settling(&s, TranMode::LineDown, &guess)?;

        let state = OpState {
            slots: vec![op.unknowns().to_vec()],
        };
        Ok((
            vec![
                iq, vout, load_reg, line_reg, tl_up, tl_dn, tv_up, tv_dn, psrr,
            ],
            state,
        ))
    }
}

impl SizingProblem for LdoRegulator {
    fn name(&self) -> &str {
        "ldo_regulator"
    }

    fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    fn metric_names(&self) -> Vec<String> {
        [
            "iq_a",
            "vout_v",
            "load_reg_v_per_a",
            "line_reg_pct_per_v",
            "t_load_up_s",
            "t_load_down_s",
            "t_line_up_s",
            "t_line_down_s",
            "psrr_db",
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
        vec![0.1, 0.0, 10.0, 10.0, 1.0, 1.0, 1.0, 1.0, 0.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reasonable_x() -> Vec<f64> {
        let ldo = LdoRegulator::new();
        let phys = [
            1.0, 1.0, 1.0, 0.4, 0.5, // L1..L5 µm
            40.0, 30.0, 10.0, 180.0, 20.0, // W1..W5 µm (W4 = pass)
            20.0, 20.0,  // R1, R2 kΩ (1:1 divider → VOUT = 1.8)
            800.0, // C fF
            2.0, 18.0, 2.0, // N1..N3 (N2 = pass multiplier)
        ];
        ldo.params
            .iter()
            .zip(phys)
            .map(|(p, v)| p.normalize(v))
            .collect()
    }

    #[test]
    fn problem_shape_matches_table_v() {
        let ldo = LdoRegulator::new();
        assert_eq!(ldo.dim(), 16);
        assert_eq!(ldo.num_metrics(), 9);
        assert_eq!(ldo.specs().len(), 9);
        assert_eq!(ldo.params()[0].lo, 0.32);
        assert_eq!(ldo.params()[9].hi, 200.0);
    }

    #[test]
    fn reasonable_design_regulates() {
        let ldo = LdoRegulator::new();
        let m = ldo.evaluate(&reasonable_x());
        assert_eq!(m.len(), 9);
        // VOUT near 1.8 V with a 1:1 divider and 0.9 V reference.
        assert!((m[1] - 1.8).abs() < 0.1, "vout {}", m[1]);
        // Quiescent current positive, well below the load.
        assert!(m[0] > 1e-6 && m[0] < 5e-3, "iq {}", m[0]);
        // Regulation figures finite and small-ish.
        assert!(m[2] < 10.0, "load reg {}", m[2]);
        assert!(m[3] < 10.0, "line reg {}", m[3]);
        // PSRR positive dB.
        assert!(m[8] > 20.0, "psrr {}", m[8]);
    }

    #[test]
    fn settling_times_within_record() {
        let ldo = LdoRegulator::new();
        let m = ldo.evaluate(&reasonable_x());
        for (k, mk) in m.iter().enumerate().take(8).skip(4) {
            // 0 is legitimate: the loop holds the output inside the band.
            assert!((0.0..=T_STOP).contains(mk), "metric {k} = {mk}");
        }
    }

    #[test]
    fn skewed_divider_misses_voltage_window() {
        let ldo = LdoRegulator::new();
        let mut x = reasonable_x();
        // R1 = 60k, R2 = 20k → VOUT target = 0.9·(1+3) = 3.6 V > VIN: rails.
        x[10] = ldo.params()[10].normalize(60.0);
        let m = ldo.evaluate(&x);
        let vout_specs: Vec<&Spec> = ldo.specs().iter().filter(|s| s.metric_index == 1).collect();
        assert!(
            vout_specs.iter().any(|s| !s.is_met(m[1])),
            "vout {} should violate the window",
            m[1]
        );
    }

    #[test]
    fn failure_metrics_are_infeasible_everywhere() {
        let ldo = LdoRegulator::new();
        let f = ldo.failure_metrics();
        assert_eq!(f.len(), ldo.num_metrics());
        assert!(!maopt_core::is_feasible(&f, ldo.specs()));
        // Every metric that appears in a spec is violated by at least one
        // of its specs (the VOUT window metric cannot violate both sides).
        for (idx, fv) in f.iter().enumerate().skip(1) {
            let related: Vec<&Spec> = ldo
                .specs()
                .iter()
                .filter(|s| s.metric_index == idx)
                .collect();
            if related.is_empty() {
                continue;
            }
            assert!(
                related.iter().any(|s| s.violation(*fv) > 0.0),
                "metric {idx} unviolated"
            );
        }
    }

    #[test]
    fn extreme_corners_return_finite_metrics() {
        let ldo = LdoRegulator::new();
        for x in [vec![0.0; 16], vec![1.0; 16]] {
            let m = ldo.evaluate(&x);
            assert_eq!(m.len(), 9);
            assert!(m.iter().all(|v| v.is_finite()), "{m:?}");
        }
    }
}
