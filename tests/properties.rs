//! Property-based integration tests: across randomized path conditions and
//! configurations, the stack must always deliver the exact byte stream, and
//! identical seeds must be bit-identical.

use mpwild::experiments::{FlowConfig, Testbed};
use mpwild::fleet::client_flow;
use mpwild::http::Wget;
use mpwild::link::{wifi_home, Carrier, DayPeriod, Jitter, LossModel, PathSpec, RateLevel, RateProcess};
use mpwild::mptcp::{Coupling, Host, SynMode};
use mpwild::sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// A randomized cellular-ish path within plausible wireless ranges.
fn arb_cell_path() -> impl Strategy<Value = PathSpec> {
    (
        2u64..20,    // down Mbps
        1u64..8,     // up Mbps
        5u64..80,    // one-way prop ms
        40usize..600, // buffer KB
        0.0f64..0.12, // raw channel loss (behind ARQ)
        0u8..2,      // rate modulated?
    )
        .prop_map(|(down, up, prop, buf_kb, loss, modulated)| {
            let mut spec = Carrier::Att.preset();
            spec.down.rate = if modulated == 1 {
                RateProcess::modulated(vec![
                    RateLevel {
                        bits_per_sec: down * 1_000_000,
                        mean_dwell: SimDuration::from_millis(400),
                    },
                    RateLevel {
                        bits_per_sec: (down * 1_000_000 / 3).max(300_000),
                        mean_dwell: SimDuration::from_millis(200),
                    },
                ])
            } else {
                RateProcess::fixed(down * 1_000_000)
            };
            spec.up.rate = RateProcess::fixed(up * 1_000_000);
            spec.down.prop_delay = SimDuration::from_millis(prop);
            spec.up.prop_delay = SimDuration::from_millis(prop);
            spec.down.buffer_bytes = buf_kb * 1024;
            spec.down.loss = LossModel::Bernoulli { p: loss };
            spec.down.jitter = Jitter::None;
            spec.name = "randomized cellular".into();
            spec
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case is a full simulated transfer
        .. ProptestConfig::default()
    })]

    /// Whatever the path looks like, MPTCP delivers the object exactly.
    #[test]
    fn download_is_byte_exact_on_arbitrary_paths(
        cell in arb_cell_path(),
        seed in 0u64..10_000,
        size_kb in 16u64..1024,
        coupling_idx in 0usize..3,
        simultaneous in proptest::bool::ANY,
    ) {
        let size = size_kb * 1024;
        let coupling = Coupling::ALL[coupling_idx];
        let wifi = wifi_home(0.4);
        let flow = FlowConfig::Mp {
            paths: 2,
            coupling,
            syn_mode: if simultaneous { SynMode::Simultaneous } else { SynMode::Delayed },
        };
        let mut tb = Testbed::build(seed, [wifi, cell], flow.transport(), None);
        tb.open_with_app(Box::new(Wget::new(size, true)), true);
        tb.world.run_until(SimTime::from_secs(900));
        let host = tb.world.agent_mut::<Host>(tb.client).expect("client host");
        let w = host.app::<Wget>(0).expect("wget");
        prop_assert!(w.is_done(), "transfer incomplete on {:?}", DayPeriod::Night);
        prop_assert_eq!(w.result.bytes, size);
        prop_assert_eq!(w.result.corrupt_bytes, 0);
    }

    /// Identical seeds give identical worlds, event counts included.
    #[test]
    fn identical_seeds_are_bit_identical(seed in 0u64..1_000) {
        let run = || {
            let wifi = wifi_home(0.5);
            let transport = FlowConfig::mp2(Coupling::Coupled).transport();
            let mut tb = Testbed::build(seed, [wifi, Carrier::Verizon.preset()], transport, None);
            tb.download(128 * 1024, true);
            tb.world.run_until(SimTime::from_secs(120));
            let events = tb.world.events_processed();
            let host = tb.world.agent::<Host>(tb.client).expect("client");
            let t = client_flow(host).and_then(|f| f.download_time());
            (events, t)
        };
        prop_assert_eq!(run(), run());
    }
}
