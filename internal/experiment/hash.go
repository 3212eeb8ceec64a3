package experiment

// hash.go is the cache-key half of the result cache: SpecHash reduces a
// validated Spec to the sha256 of its canonical semantic JSON, so two
// Specs that would simulate the same numbers share one content address
// regardless of how they were written down.
//
// Semantic fields are everything that changes a single byte of a
// ResultPoint: mode, arbiters, topology, the workload axes, timing
// fidelity (cycles/warmup/seed/pipeline/epochs), the standalone section,
// and the replication settings. Execution knobs are excluded:
//
//   - Name titles tables and progress labels, never measurements;
//   - Check is observation-only by contract (a checked run is
//     byte-identical to an unchecked one, test-enforced since PR 5);
//   - Metrics, by contrast, is INCLUDED: telemetry never perturbs the
//     measured numbers, but the snapshots ride inside each ResultPoint,
//     so a metrics-enabled run's bytes differ — a cached metric-laden
//     point must never be served to a run that did not ask for metrics,
//     nor a bare point to one that did;
//   - Workload.RecordTo captures a side-effect trace without changing
//     the run (and record/replay specs bypass the cache anyway, because
//     a path does not content-address the trace behind it);
//   - worker counts and progress sinks live outside the Spec entirely,
//     and PR 1's serial==parallel byte-identity is what makes excluding
//     them sound.
//
// Hash stability is part of the cache's on-disk contract: the golden
// tests in hash_test.go pin the hash of every canned figure Spec, so an
// accidental change to the canonical form (field renames, reordering,
// new always-emitted fields) fails CI instead of silently orphaning
// every existing cache entry.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// hashableSpec strips the execution knobs, leaving the canonical
// semantic spec that SpecHash serializes.
func hashableSpec(s Spec) Spec {
	s.Name = ""
	s.Check = false
	if s.Workload != nil {
		w := *s.Workload
		w.RecordTo = ""
		s.Workload = &w
	}
	return s
}

// SpecHash returns the content address of the spec's semantic fields:
// the lowercase-hex sha256 of its canonical JSON, suitable as a cache
// key. Two specs differing only in execution knobs (Name, Check,
// Workload.RecordTo) hash identically; any field that can change a
// measurement participates. The spec must be valid.
func SpecHash(s Spec) (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	data, err := json.Marshal(hashableSpec(s))
	if err != nil {
		return "", fmt.Errorf("experiment: hash spec: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
