package thermflow

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
)

// This file is the durable form of an Answer: the payload thermflowd's
// disk tier stores under the job ID, and what lets a restarted backend
// come back warm. The layout is a little-endian u16 version followed
// by the answer's JSON wire form, so a stored answer is served exactly
// as it was computed: encoding/json writes each float64 in the
// shortest form that parses back to the same bits.

// answerCodecVersion versions the answer encoding. Bump it on any
// change: entries of another version fail to decode, count as corrupt
// and are deleted, so the job recomputes. Version 1 was the layout of
// the whole compilation (allocated IR, register assignment and every
// thermal state) that earlier releases persisted.
const answerCodecVersion = 2

// MarshalBinary renders a durably: the versioned encoding above.
func (a *Answer) MarshalBinary() ([]byte, error) {
	js, err := json.Marshal(a)
	if err != nil {
		return nil, fmt.Errorf("thermflow: encode answer: %w", err)
	}
	return append(binary.LittleEndian.AppendUint16(make([]byte, 0, 2+len(js)), answerCodecVersion), js...), nil
}

// EncodeCompiled writes the durable form of c's answer (see
// MarshalBinary).
func EncodeCompiled(c *Compiled) ([]byte, error) { return c.Answer().MarshalBinary() }

// DecodeCompiled reads the durable form of an answer. It accepts only
// what MarshalBinary writes: another version, malformed or trailing
// JSON, unknown fields and any other spelling of the same answer are
// errors (the disk tier treats them as a corrupt entry), never a
// panic. So a decoded answer re-encodes to the bytes it came from.
func DecodeCompiled(data []byte) (*Answer, error) {
	if len(data) < 2 {
		return nil, errors.New("thermflow: decode answer: truncated version")
	}
	if v := binary.LittleEndian.Uint16(data); v != answerCodecVersion {
		return nil, fmt.Errorf("thermflow: decode answer: codec version %d, want %d", v, answerCodecVersion)
	}
	a := new(Answer)
	if err := json.Unmarshal(data[2:], a); err != nil {
		return nil, fmt.Errorf("thermflow: decode answer: %w", err)
	}
	if js, err := json.Marshal(a); err != nil || !bytes.Equal(js, data[2:]) {
		return nil, errors.New("thermflow: decode answer: not in canonical form")
	}
	return a, nil
}
