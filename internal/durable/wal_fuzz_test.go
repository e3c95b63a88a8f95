package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzReadRecord pins the WAL record reader's contract on whatever a crash
// or a bad disk leaves behind: readRecord returns io.EOF on an empty
// stream, an errTorn-wrapped error (recovery truncates there), or a record
// that re-encodes to exactly the prefix it consumed. It never panics and
// never accepts a record it could not have written.
func FuzzReadRecord(f *testing.F) {
	valid := encodeRecord(7, []byte(`{"tables":{"t":{"card":7}}}`))
	f.Add(valid)
	f.Add(encodeRecord(0, nil))
	f.Add([]byte{})
	f.Add(valid[:5])
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), valid...))
	huge := make([]byte, frameHeaderSize+4)
	binary.BigEndian.PutUint32(huge, maxRecordSize)
	f.Add(huge)
	for i := 0; i < len(valid); i += 5 {
		flipped := append([]byte(nil), valid...)
		flipped[i] ^= 1 << (i % 8)
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		version, delta, err := readRecord(bytes.NewReader(data))
		switch {
		case err == io.EOF:
			if len(data) != 0 {
				t.Fatalf("io.EOF after %d bytes, want it only on an empty stream", len(data))
			}
		case err != nil:
			if !errors.Is(err, errTorn) {
				t.Fatalf("read failure is not a torn record: %v", err)
			}
		default:
			if !bytes.HasPrefix(data, encodeRecord(version, delta)) {
				t.Fatalf("accepted record (version %d, %d-byte delta) does not re-encode to the bytes it consumed", version, len(delta))
			}
		}
	})
}
