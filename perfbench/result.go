package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"damq"
)

// summaryDoc is the exported view of one running summary. The library's
// Summary keeps its fields unexported, so json.Marshal of a Result would
// drop every latency and occupancy statistic; the benchmark compares and
// fingerprints this fuller document instead.
type summaryDoc struct {
	N                   int64
	Mean, Var, Min, Max float64
}

func summarize(s interface {
	N() int64
	Mean() float64
	Variance() float64
	Min() float64
	Max() float64
}) summaryDoc {
	return summaryDoc{N: s.N(), Mean: s.Mean(), Var: s.Variance(), Min: s.Min(), Max: s.Max()}
}

// resultDoc is everything a NetworkResult reports: its counters and
// config (as the library marshals them) plus every summary and the
// latency histogram.
type resultDoc struct {
	Result               json.RawMessage
	LatencyFromBorn      summaryDoc
	LatencyFromInjection summaryDoc
	HotLatency           summaryDoc
	ColdLatency          summaryDoc
	Occupancy            summaryDoc
	SourceBacklog        summaryDoc
	StageOccupancy       []summaryDoc
	LatencyBuckets       []int64
	LatencyOverflow      int64
}

// encodeResult returns the canonical bytes of res. Two results are equal
// exactly when their encodings are.
func encodeResult(res *damq.NetworkResult) ([]byte, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	d := resultDoc{
		Result:               raw,
		LatencyFromBorn:      summarize(&res.LatencyFromBorn),
		LatencyFromInjection: summarize(&res.LatencyFromInjection),
		HotLatency:           summarize(&res.HotLatency),
		ColdLatency:          summarize(&res.ColdLatency),
		Occupancy:            summarize(&res.Occupancy),
		SourceBacklog:        summarize(&res.SourceBacklog),
	}
	for i := range res.StageOccupancy {
		d.StageOccupancy = append(d.StageOccupancy, summarize(&res.StageOccupancy[i]))
	}
	if h := res.LatencyHist; h != nil {
		d.LatencyBuckets = h.Buckets()
		d.LatencyOverflow = h.Overflow()
	}
	out, err := json.Marshal(d)
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	return out, nil
}

// fingerprint is the first 16 hex digits of the SHA-256 of a result
// encoding.
func fingerprint(enc []byte) string {
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:8])
}
