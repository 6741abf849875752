//! Property-based tests for the HDD substrate.

use proptest::prelude::*;
use raidsim_dists::{LifeDistribution, Weibull3};
use raidsim_hdd::restore::{minimum_restore_hours, Capped, RestoreModel};
use raidsim_hdd::scrub::minimum_scrub_hours;
use raidsim_hdd::units::{Capacity, DataRate};
use raidsim_hdd::{DriveSpec, Interface};

fn interfaces() -> impl Strategy<Value = Interface> {
    prop_oneof![
        Just(Interface::FibreChannel1G),
        Just(Interface::FibreChannel2G),
        Just(Interface::FibreChannel4G),
        Just(Interface::SataI),
        Just(Interface::SataII),
        Just(Interface::ScsiUltra320),
    ]
}

fn drives() -> impl Strategy<Value = DriveSpec> {
    (10.0..2_000.0f64, 20.0..150.0f64, interfaces()).prop_map(|(gb, mb_s, iface)| {
        DriveSpec::builder("prop")
            .capacity(Capacity::from_gb(gb))
            .interface(iface)
            .sustained_rate(DataRate::from_mb_per_s(mb_s))
            .build()
            .expect("generated specs are valid")
    })
}

proptest! {
    #[test]
    fn restore_time_grows_with_group_size(drive in drives(), g in 2usize..30) {
        let smaller = minimum_restore_hours(&drive, g);
        let larger = minimum_restore_hours(&drive, g + 1);
        prop_assert!(larger >= smaller);
        prop_assert!(smaller > 0.0);
    }

    #[test]
    fn restore_time_grows_with_capacity(
        iface in interfaces(),
        gb in 10.0..1_000.0f64,
        g in 2usize..20,
    ) {
        let small = DriveSpec::builder("s")
            .capacity(Capacity::from_gb(gb))
            .interface(iface)
            .build()
            .unwrap();
        let big = DriveSpec::builder("b")
            .capacity(Capacity::from_gb(gb * 2.0))
            .interface(iface)
            .build()
            .unwrap();
        prop_assert!(
            minimum_restore_hours(&big, g) >= 2.0 * minimum_restore_hours(&small, g) - 1e-9
        );
    }

    #[test]
    fn restore_never_beats_both_bounds(drive in drives(), g in 2usize..30) {
        let t = minimum_restore_hours(&drive, g);
        prop_assert!(t >= drive.full_pass_hours() - 1e-12);
        let bus_bound = drive.interface().bus_rate().hours_to_transfer(drive.capacity())
            * g as f64;
        prop_assert!(t >= bus_bound - 1e-9);
    }

    #[test]
    fn restore_model_location_respects_foreground_io(
        drive in drives(),
        g in 2usize..20,
        io in 0.0..0.9f64,
    ) {
        let m = RestoreModel {
            group_size: g,
            foreground_io: io,
            ..RestoreModel::paper_base_case()
        };
        let w = m.weibull_for(&drive).unwrap();
        let idle_min = minimum_restore_hours(&drive, g);
        prop_assert!((w.location() - idle_min / (1.0 - io)).abs() < 1e-9);
    }

    #[test]
    fn capped_distribution_is_stochastically_smaller(
        cap in 10.0..200.0f64,
        eta in 5.0..50.0f64,
        beta in 0.5..3.0f64,
        t in 0.0..300.0f64,
    ) {
        let w = Weibull3::new(6.0, eta, beta).unwrap();
        let c = Capped::new(Box::new(w), cap).unwrap();
        let w2 = Weibull3::new(6.0, eta, beta).unwrap();
        // Capping can only move probability mass earlier.
        prop_assert!(c.cdf(t) >= w2.cdf(t) - 1e-12);
        // Capped::mean is a 20k-step trapezoid; when the cap sits far
        // in the tail the two means agree to ~1e-6, so compare at the
        // integrator's accuracy.
        prop_assert!(c.mean() <= w2.mean() + 1e-5 * w2.mean().max(1.0));
    }

    #[test]
    fn scrub_pass_scales_inversely_with_bandwidth(
        drive in drives(),
        frac in 0.01..1.0f64,
    ) {
        let full = minimum_scrub_hours(&drive, 1.0);
        let throttled = minimum_scrub_hours(&drive, frac);
        prop_assert!((throttled * frac - full).abs() < 1e-6 * full);
    }
}
