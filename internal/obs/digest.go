package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strings"
)

// Replay digests.
//
// The deterministic-replay contract of the simulator (internal/check)
// states that two runs of the same scenario configuration and seed must
// produce byte-identical observable output. This file supplies the two
// halves of the evidence:
//
//   - DigestSink hashes the canonical NDJSON rendering of every event,
//     span and decision a Tracer emits, in emission order, so the hash
//     covers ordering as well as content. Virtual timestamps and
//     sequence numbers are included — they are part of the contract.
//   - ReportDigest hashes a run report after normalizing the fields
//     that legitimately differ between replays (wall-clock time, sink
//     health counters that depend on which sink was attached).
//
// Both digests are SHA-256 rendered as lowercase hex.

// DigestSink hashes every record's canonical NDJSON line into a running
// SHA-256. It can optionally tee records into a second sink (e.g. a
// WriterSink) so a run can be digested and exported at once. Like the
// other sinks it reuses one scratch buffer, so steady-state recording
// does not allocate.
type DigestSink struct {
	h       hash.Hash
	scratch []byte
	records uint64

	next Sink
}

// NewDigestSink builds a digesting sink that forwards every record to
// next after hashing it. A nil next falls back to NullSink.
func NewDigestSink(next Sink) *DigestSink {
	if next == nil {
		next = NullSink{}
	}
	return &DigestSink{h: sha256.New(), scratch: make([]byte, 0, 256), next: next}
}

func (s *DigestSink) hashLine() {
	s.scratch = append(s.scratch, '\n')
	s.h.Write(s.scratch)
	s.records++
}

// Record implements Sink.
func (s *DigestSink) Record(ev Event) {
	s.scratch = AppendJSON(s.scratch[:0], ev)
	s.hashLine()
	s.next.Record(ev)
}

// RecordSpan implements Sink.
func (s *DigestSink) RecordSpan(sp Span) {
	s.scratch = AppendSpanJSON(s.scratch[:0], sp)
	s.hashLine()
	s.next.RecordSpan(sp)
}

// RecordDecision implements Sink.
func (s *DigestSink) RecordDecision(d Decision) {
	s.scratch = AppendDecisionJSON(s.scratch[:0], d)
	s.hashLine()
	s.next.RecordDecision(d)
}

// Records returns how many records (events + spans + decisions) were
// hashed so far.
func (s *DigestSink) Records() uint64 { return s.records }

// Sum returns the hex digest over everything recorded so far. It does
// not reset the running hash, so it may be read mid-stream.
func (s *DigestSink) Sum() string { return hex.EncodeToString(s.h.Sum(nil)) }

// ReportDigest hashes a run report into a stable hex digest after
// normalizing the fields that are allowed to differ between replays of
// the same scenario+seed: WallMs measures host speed, SinkStats
// describe the sink that happened to be attached, and the entire perf
// surface (the Perf section plus every PerfMetricPrefix-ed metric and
// series) measures the host's clock and allocator, not the run.
// Everything else — Phi, class stats, series, registry samples, event
// counts, SLO accounting — must be byte-identical for the digest to
// match, which is exactly the replay contract. A run profiled with
// internal/perf therefore digests identically to an unprofiled one.
func ReportDigest(r *Report) string {
	cp := *r
	cp.WallMs = 0
	cp.Sink = nil
	cp.Perf = nil
	cp.Series = stripPerfSeries(cp.Series)
	cp.Metrics = stripPerfMetrics(cp.Metrics)
	if cp.Schema == "" {
		cp.Schema = ReportSchema
	}
	b, err := json.Marshal(&cp)
	if err != nil {
		// A Report is plain data; marshalling cannot fail unless the
		// struct grows an unmarshalable field, which tests would catch.
		panic(fmt.Sprintf("obs: report digest marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// stripPerfSeries returns the series map without PerfMetricPrefix-ed
// keys, copying only when something must be removed (the input is the
// live report's map and must not be mutated).
func stripPerfSeries(in map[string][]float64) map[string][]float64 {
	drop := 0
	for k := range in {
		if strings.HasPrefix(k, PerfMetricPrefix) {
			drop++
		}
	}
	if drop == 0 {
		return in
	}
	out := make(map[string][]float64, len(in)-drop)
	for k, v := range in {
		if !strings.HasPrefix(k, PerfMetricPrefix) {
			out[k] = v
		}
	}
	return out
}

// stripPerfMetrics filters PerfMetricPrefix-ed samples out of the final
// registry scrape, preserving order.
func stripPerfMetrics(in []MetricSample) []MetricSample {
	keep := true
	for _, m := range in {
		if strings.HasPrefix(m.Name, PerfMetricPrefix) {
			keep = false
			break
		}
	}
	if keep {
		return in
	}
	out := make([]MetricSample, 0, len(in))
	for _, m := range in {
		if !strings.HasPrefix(m.Name, PerfMetricPrefix) {
			out = append(out, m)
		}
	}
	return out
}
