package jobs

import (
	"fmt"

	"thermflow"
	"thermflow/internal/batch"
	"thermflow/internal/cachestore"
)

// This file is the engine a Registry runs its jobs on: a batch.Runner
// whose result store holds each job's answer under the job ID. A job
// compiles to a *thermflow.Compiled that is reduced to its Answer and
// dropped, so a retained job, the memory tier and the disk tier all
// hold the same few-kilobyte answer, and an answer read back from disk
// is served byte for byte as it was computed.

// NewEngine returns a Runner over a worker pool of the given size
// (<= 0 selects GOMAXPROCS) and a two-tier answer store: store's caps
// and directory as given, with the answer's size estimate and durable
// encoding filled in. It fails only when the disk tier cannot be
// opened.
func NewEngine(workers int, store cachestore.Config) (*batch.Runner, error) {
	store.SizeOf = answerSize
	store.Codec = answerCodec{}
	s, err := cachestore.Open(store)
	if err != nil {
		return nil, fmt.Errorf("jobs: opening answer store: %w", err)
	}
	return batch.NewRunnerStore(workers, s), nil
}

// answerCodec persists answers through their versioned encoding.
// Anything else — the runner's cached failures — stays memory-only.
type answerCodec struct{}

func (answerCodec) Encode(v any) ([]byte, error) {
	a, ok := v.(*thermflow.Answer)
	if !ok {
		return nil, cachestore.ErrUnencodable
	}
	return a.MarshalBinary()
}

func (answerCodec) Decode(data []byte) (any, error) {
	return thermflow.DecodeCompiled(data)
}

// answerSize estimates an answer's resident bytes for the memory
// tier's cap: the fixed fields, the per-register peaks, the hot-spot
// ranking and the spilled names.
func answerSize(v any) int64 {
	a, ok := v.(*thermflow.Answer)
	if !ok {
		return 512 // a cached failure
	}
	size := int64(512) + int64(len(a.RegPeak))*8 + int64(len(a.HotSpots))*64
	for _, name := range a.Alloc.Spilled {
		size += int64(len(name)) + 16
	}
	return size
}
