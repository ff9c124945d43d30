package thermflow

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzJobSpecDecode drives DecodeJobSpec with arbitrary bytes. The
// invariants: decoding never panics; a successful decode re-encodes
// without error; and encode → decode → encode is byte-identical with
// a stable job ID (the determinism the whole identity chain — cache
// key, WAL payload, shard key — rests on).
func FuzzJobSpecDecode(f *testing.F) {
	if spec, err := JobSpecFromKernel("dot", Options{NumRegs: 48}); err == nil {
		if b, err := json.Marshal(spec); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(`{"v":2,"source":"","options":{}}`))
	f.Add([]byte(`{"v":3,"source":"x","options":{}}`))         // future version: must reject
	f.Add([]byte(`{"v":2,"source":"a","options":{}}{"v":2}`))  // trailing frame
	f.Add([]byte(`{"v":2,"options":{"policy":"chessboard"}}`)) // enum by name
	f.Add([]byte(`{"deadline_ms":9223372036854775807}`))       // duration overflow bait
	f.Add([]byte(`{`))
	f.Add([]byte{0x00, 0xff, 0xfe})

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeJobSpec(data)
		if err != nil {
			return // rejected input: the only requirement was not panicking
		}
		enc1, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("decoded spec does not re-encode: %v", err)
		}
		spec2, err := DecodeJobSpec(enc1)
		if err != nil {
			t.Fatalf("re-encoded spec does not decode: %v\nencoding: %s", err, enc1)
		}
		enc2, err := json.Marshal(spec2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode/decode/encode not a fixpoint:\n first %s\nsecond %s", enc1, enc2)
		}
		id1, err1 := spec.ID()
		id2, err2 := spec2.ID()
		if (err1 == nil) != (err2 == nil) || id1 != id2 {
			t.Fatalf("job ID unstable across round-trip: %q (%v) vs %q (%v)", id1, err1, id2, err2)
		}
	})
}

// FuzzJobSpecDeadline pins the one lossy corner: DeadlineMS values
// that overflow time.Duration must still round-trip to a fixpoint
// after the first encode.
func FuzzJobSpecDeadline(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(1500))
	f.Add(int64(9223372036854775807))
	f.Add(int64(-1))
	f.Fuzz(func(t *testing.T, ms int64) {
		spec := JobSpec{Source: "s", Deadline: time.Duration(ms) * time.Millisecond}
		enc1, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		spec2, err := DecodeJobSpec(enc1)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		enc2, err := json.Marshal(spec2)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("deadline %d not a fixpoint:\n first %s\nsecond %s", ms, enc1, enc2)
		}
	})
}

// FuzzDecodeCompiled drives the answer decoder — what the disk tier
// runs over whatever a cache directory holds — with arbitrary bytes.
// The invariants: decoding never panics, and a successful decode
// re-encodes to exactly the bytes it came from, so an answer served
// from disk is the answer that was stored. Seeds: a kernel's encoded
// answer and every truncation of it, a payload framed like the
// version-1 whole-compilation layout earlier releases persisted, and
// empty input.
func FuzzDecodeCompiled(f *testing.F) {
	p, err := Kernel("fir")
	if err != nil {
		f.Fatal(err)
	}
	c, err := p.Compile(Options{Policy: Chessboard, NumRegs: 16})
	if err != nil {
		f.Fatal(err)
	}
	enc, err := EncodeCompiled(c)
	if err != nil {
		f.Fatal(err)
	}
	if a, err := DecodeCompiled(enc); err != nil || a.PeakTemp != c.Thermal.PeakTemp {
		f.Fatalf("kernel answer does not decode: %v", err)
	}
	for n := 0; n <= len(enc); n++ {
		f.Add(enc[:n])
	}
	parent := append([]byte{1, 0}, enc[2:]...)
	if _, err := DecodeCompiled(parent); err == nil {
		f.Fatal("a version-1 payload decoded as an answer")
	}
	f.Add(parent)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeCompiled(data)
		if err != nil {
			return // rejected input: the only requirement was not panicking
		}
		again, err := a.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded answer does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decode/encode not the identity:\n  in %q\n out %q", data, again)
		}
	})
}
