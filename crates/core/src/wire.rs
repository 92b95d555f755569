//! The serialized analysis wire format.
//!
//! Every observable of a [`BinaryAnalysis`] — identified sets, per-site
//! reports, wrappers, cost counters, phase timings — (de)serializes
//! through `serde`, which is what lets results cross process boundaries:
//! the fleet's coordinator/agent protocol and the content-addressed
//! result cache both speak exactly this format.
//!
//! One deliberate exception: the recovered [`Cfg`](bside_cfg::Cfg) is
//! **not** part of the wire format. The graph is an intermediate artifact
//! (orders of magnitude larger than the report, and rebuildable from the
//! binary), so serialization skips it and deserialization restores an
//! empty graph (`Cfg::default()`). The canonical report — the determinism contract across
//! thread counts *and* deployment modes — never looks at the graph, so
//! round-tripping preserves it byte-for-byte. Phase detection, which does
//! walk the graph, must run where the analysis ran.

use crate::identify::{SiteOutcome, SiteReport};
use crate::report::{AnalysisStats, PhaseTimings, PipelineTimings};
use crate::wrapper::{WrapperInfo, WrapperParam};
use crate::{AnalyzerOptions, BinaryAnalysis};
use serde::de::{self, Visitor};
use serde::ser::SerializeMap;
use serde::Value;

serde::impl_serde_unit_enum!(SiteOutcome {
    Exact,
    ViaWrapper,
    ConservativeFallback,
});

serde::impl_serde_struct!(SiteReport {
    site,
    function,
    syscalls,
    outcome,
});

// External tagging, as real serde derives for a mixed enum: newtype
// variants become single-entry objects, the unit variant its name.
impl serde::Serialize for WrapperParam {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        fn variant<S: serde::Serializer, T: serde::Serialize>(
            serializer: S,
            name: &str,
            value: &T,
        ) -> Result<S::Ok, S::Error> {
            let mut map = serializer.serialize_map(Some(1))?;
            map.serialize_entry(name, value)?;
            map.end()
        }
        match self {
            WrapperParam::Reg(r) => variant(serializer, "Reg", r),
            WrapperParam::StackSlot(off) => variant(serializer, "StackSlot", off),
            WrapperParam::Unknown => serializer.serialize_str("Unknown"),
        }
    }
}

struct WrapperParamVisitor;

impl<'de> Visitor<'de> for WrapperParamVisitor {
    type Value = WrapperParam;

    fn expecting(&self) -> &str {
        "WrapperParam"
    }

    fn visit_str<E: de::Error>(self, v: &str) -> Result<WrapperParam, E> {
        match v {
            "Unknown" => Ok(WrapperParam::Unknown),
            other => self.visit_value(Value::Str(other.to_owned())),
        }
    }

    fn visit_value<E: de::Error>(self, found: Value) -> Result<WrapperParam, E> {
        Err(E::custom(format!("expected WrapperParam, found {found:?}")))
    }

    fn visit_seq<A: de::SeqAccess<'de>>(self, seq: A) -> Result<WrapperParam, A::Error> {
        self.visit_value(de::seq_to_value(seq)?)
    }

    /// A variant is an object of exactly one entry. The entry's value is
    /// held as a [`Value`] until no second entry follows, since an
    /// object of any other size is reported whole.
    fn visit_map<A: de::MapAccess<'de>>(self, mut map: A) -> Result<WrapperParam, A::Error> {
        let Some(tag) = map.next_key_with(str::to_owned)? else {
            return self.visit_value(Value::Object(Vec::new()));
        };
        let inner: Value = map.next_value()?;
        if let Some(key) = map.next_key_with(str::to_owned)? {
            let mut entries = vec![(tag, inner), (key, map.next_value()?)];
            let Value::Object(rest) = de::map_to_value(map)? else {
                unreachable!("a map reads as an object");
            };
            entries.extend(rest);
            return self.visit_value(Value::Object(entries));
        }
        match tag.as_str() {
            "Reg" => serde::from_value(inner).map(WrapperParam::Reg),
            "StackSlot" => serde::from_value(inner).map(WrapperParam::StackSlot),
            other => Err(de::Error::custom(format!(
                "unknown WrapperParam variant `{other}`"
            ))),
        }
        .map_err(de::Error::custom)
    }
}

impl<'de> serde::Deserialize<'de> for WrapperParam {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_any(WrapperParamVisitor)
    }
}

serde::impl_serde_struct!(WrapperInfo {
    entry,
    name,
    sites,
    param,
});

serde::impl_serde_struct!(PhaseTimings {
    cfg_recovery,
    wrapper_identification,
    syscall_identification,
    total,
});

serde::impl_serde_struct!(AnalysisStats {
    timings,
    cfg,
    sites,
    blocks_explored,
    peak_rss_bytes,
});

serde::impl_serde_struct!(PipelineTimings {
    binaries,
    cfg_recovery,
    wrapper_identification,
    syscall_identification,
    total,
});

serde::impl_serde_struct!(AnalyzerOptions {
    cfg,
    limits,
    detect_wrappers,
    conservative_fallback,
    parallelism,
});

serde::impl_serde_struct!(BinaryAnalysis {
    syscalls,
    sites,
    wrappers,
    precise,
    stats,
} skip { cfg });

#[cfg(test)]
mod tests {
    use crate::{Analyzer, AnalyzerOptions, BinaryAnalysis};

    #[test]
    fn analysis_json_round_trip_preserves_every_observable() {
        for profile in bside_gen::profiles::all_profiles() {
            let analysis = Analyzer::new(AnalyzerOptions::default())
                .analyze_static(&profile.program.elf)
                .expect("profile analyzes");
            let json = serde_json::to_string(&analysis).expect("serializes");
            let back: BinaryAnalysis = serde_json::from_str(&json).expect("parses back");

            // The canonical report covers syscalls, sites, wrappers,
            // precision and deterministic cost counters in one shot.
            assert_eq!(
                analysis.canonical_report(),
                back.canonical_report(),
                "{}: canonical report diverged across the wire",
                profile.name
            );
            // Timings and RSS are excluded from the report but are part
            // of the wire format (the bench harness aggregates them).
            assert_eq!(
                analysis.stats.timings.total, back.stats.timings.total,
                "{}: timings diverged",
                profile.name
            );
            assert_eq!(analysis.stats.peak_rss_bytes, back.stats.peak_rss_bytes);
            // The graph is deliberately dropped by the wire format.
            assert!(back.cfg.blocks().is_empty());
        }
    }

    #[test]
    fn options_json_round_trip() {
        let options = AnalyzerOptions {
            detect_wrappers: false,
            parallelism: 7,
            ..AnalyzerOptions::default()
        };
        let json = serde_json::to_string(&options).expect("serializes");
        let back: AnalyzerOptions = serde_json::from_str(&json).expect("parses back");
        assert_eq!(back.detect_wrappers, options.detect_wrappers);
        assert_eq!(back.parallelism, options.parallelism);
        assert_eq!(back.limits, options.limits);
        assert_eq!(back.cfg.indirect, options.cfg.indirect);
    }

    #[test]
    fn pipeline_timings_round_trip() {
        use crate::report::{PhaseTimings, PipelineTimings};
        use std::time::Duration;
        let mut agg = PipelineTimings::new();
        agg.record(&PhaseTimings {
            cfg_recovery: Duration::from_micros(21),
            wrapper_identification: Duration::from_micros(34),
            syscall_identification: Duration::from_micros(55),
            total: Duration::from_micros(144),
        });
        let json = serde_json::to_string(&agg).unwrap();
        let back: PipelineTimings = serde_json::from_str(&json).unwrap();
        assert_eq!(back.binaries, 1);
        assert_eq!(back.total, Duration::from_micros(144));
    }
}
