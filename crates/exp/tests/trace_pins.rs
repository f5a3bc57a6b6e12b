//! The trace layer pinned directly: FNV-1a digests of every failing
//! unit, failure date and merged event (date, unit, slot) of a few
//! streams, so a change to trace generation fails here by name instead
//! of hiding behind whatever a golden aggregate happens to absorb.
//!
//! The digests were taken from the per-index generator that sampled and
//! screened each unit on its own, before traces were generated by
//! block; every path here must reproduce them: direct generation, the
//! cache's one-index entry, and the cache's block entry widening the
//! Exascale streams from 2^16 to 2^18 to 2^20 processors.

use ckpt_exp::{DistSpec, Scenario, TraceCache};
use ckpt_platform::{PlatformEvents, TraceSet};
use ckpt_workload::{DAY, YEAR};

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// The unit count, every failing unit with its dates, and every event.
fn digest(set: &TraceSet, events: &PlatformEvents) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    fnv(&mut h, set.unit_count() as u64);
    for (id, dates) in set.units.failing() {
        fnv(&mut h, u64::from(id));
        fnv(&mut h, dates.len() as u64);
        for d in dates {
            fnv(&mut h, d.to_bits());
        }
    }
    fnv(&mut h, events.len() as u64);
    for ((t, u), s) in events.times().iter().zip(events.units()).zip(events.slots()) {
        fnv(&mut h, t.to_bits());
        fnv(&mut h, u64::from(*u));
        fnv(&mut h, u64::from(*s));
    }
    fnv(&mut h, events.slot_count() as u64);
    h
}

/// Figure 3's law: Exponential, MTBF 1250 years per processor.
const EXA_PINS: [(u64, [u64; 6]); 3] = [
    (
        1 << 16,
        [
            0x8edd_e476_bc91_db7f,
            0xa9c9_a471_c7bd_bd33,
            0xc075_2cee_6bab_abc4,
            0x65bf_1d47_3171_a483,
            0x3ae7_a820_7957_826c,
            0x24b9_4e03_7b22_2216,
        ],
    ),
    (
        1 << 18,
        [
            0xee4e_da64_18cb_9426,
            0x5f2a_9d15_1b15_3327,
            0x61f7_4b24_88a8_4458,
            0x7f96_4316_ca55_aa82,
            0xeb92_697a_e1e1_0f87,
            0xa759_4229_2151_9871,
        ],
    ),
    (
        1 << 20,
        [
            0x395e_e249_a593_45a3,
            0xf9da_adaa_71eb_f453,
            0x8cb1_04a7_8f59_51ea,
            0xb4a8_a635_1487_7655,
            0xb287_ead4_02e6_d35d,
            0xcfcc_8bf7_410c_ef15,
        ],
    ),
];

#[test]
fn exascale_exponential_streams_match_their_pins_on_every_path() {
    let dist = DistSpec::Exponential { mtbf: 1_250.0 * YEAR };
    let built = dist.build();
    let blocks = [0..4, 4..6];
    let (widened, single) = (TraceCache::default(), TraceCache::default());
    for (procs, pins) in EXA_PINS {
        let sc = Scenario::exascale(dist.clone(), procs, pins.len());
        // The block entry grows the sets the narrower cell left cached.
        let by_block = widened.get_or_generate_blocks(&sc, &built, &blocks, 2);
        for (index, pin) in pins.into_iter().enumerate() {
            let direct = sc.generate_traces(&built, index);
            let one = single.get_or_generate(&sc, &built, index);
            let block = &by_block[index];
            let what = format!("p = {procs}, trace {index}");
            assert_eq!(digest(&direct, &direct.platform_events()), pin, "{what}: direct");
            assert_eq!(digest(&one.traces, &one.events), pin, "{what}: one index");
            assert_eq!(digest(&block.traces, &block.events), pin, "{what}: by block");
            assert_eq!(block.traces.unit_count(), procs as usize, "{what}");
        }
    }
}

#[test]
fn petascale_and_one_processor_weibull_streams_match_their_pins() {
    let cells = [
        (
            Scenario::petascale(DistSpec::Weibull { shape: 0.7, mtbf: 125.0 * YEAR }, 45_208, 2),
            [(0x8f69_df3e_61ed_40c9, 10_125), (0xe893_9c10_93a1_0b48, 10_069)],
        ),
        (
            Scenario::single_processor(DistSpec::Weibull { shape: 0.7, mtbf: DAY }, 2),
            [(0x7f9d_8dc4_2915_8401, 702), (0x80e7_1423_f710_c441, 743)],
        ),
    ];
    for (sc, pins) in cells {
        let built = sc.dist.build();
        let blocks = [0..1, 1..2];
        let by_block = TraceCache::default().get_or_generate_blocks(&sc, &built, &blocks, 2);
        for (index, (pin, events)) in pins.into_iter().enumerate() {
            let what = format!("{} trace {index}", sc.label);
            let direct = sc.generate_traces(&built, index);
            assert_eq!(direct.platform_events().len(), events, "{what}");
            assert_eq!(digest(&direct, &direct.platform_events()), pin, "{what}: direct");
            let block = &by_block[index];
            assert_eq!(digest(&block.traces, &block.events), pin, "{what}: by block");
        }
    }
}
