package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// WAL record framing. Each record is
//
//	u32 payload length | u32 IEEE CRC-32 of payload | payload
//
// with the payload being
//
//	u64 catalog version | stats JSON v2 delta (the tables the mutation changed)
//
// all integers big-endian. The CRC covers the whole payload (version
// included), so a record torn anywhere — header, version, JSON — fails
// verification and recovery truncates it instead of applying half a
// mutation. The JSON delta additionally carries the per-section CRCs of
// the stats v2 format, so even a CRC collision on the frame cannot smuggle
// a corrupted table section past import.
const (
	frameHeaderSize = 8
	versionSize     = 8
	// maxRecordSize bounds a record's payload; a length field beyond it is
	// frame corruption, not a huge record (the largest realistic delta is a
	// full-catalog ImportStats, well under this).
	maxRecordSize = 1 << 28 // 256 MiB
)

// errTorn marks a frame that ends or breaks before its checksum verifies —
// the signature of a writer killed mid-record. Recovery truncates the WAL
// at the record's start instead of failing.
var errTorn = errors.New("durable: torn wal record")

// encodeRecord frames one WAL record.
func encodeRecord(version uint64, delta []byte) []byte {
	payload := make([]byte, versionSize+len(delta))
	binary.BigEndian.PutUint64(payload, version)
	copy(payload[versionSize:], delta)
	frame := make([]byte, frameHeaderSize+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderSize:], payload)
	return frame
}

// readRecord reads one record from r. It returns errTorn (possibly wrapped)
// when the stream ends mid-frame or the checksum fails, and io.EOF exactly
// at a clean record boundary.
func readRecord(r io.Reader) (version uint64, delta []byte, err error) {
	header := make([]byte, frameHeaderSize)
	n, err := io.ReadFull(r, header)
	if err == io.EOF && n == 0 {
		return 0, nil, io.EOF
	}
	if err != nil {
		return 0, nil, fmt.Errorf("%w: short frame header (%d of %d bytes)", errTorn, n, frameHeaderSize)
	}
	length := binary.BigEndian.Uint32(header)
	if length < versionSize || length > maxRecordSize {
		return 0, nil, fmt.Errorf("%w: implausible payload length %d", errTorn, length)
	}
	payload, err := readPayload(r, length)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: short payload (%d of %d bytes)", errTorn, len(payload), length)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(header[4:]); got != want {
		return 0, nil, fmt.Errorf("%w: payload checksum mismatch (frame says %08x, content hashes to %08x)", errTorn, want, got)
	}
	return binary.BigEndian.Uint64(payload), payload[versionSize:], nil
}

// readPayload reads exactly n bytes from r. Up to 64 KiB it allocates the
// payload once; beyond that the buffer doubles as bytes arrive, so a header
// announcing more than the stream holds costs about what the stream
// delivered, not what the header claimed.
func readPayload(r io.Reader, n uint32) ([]byte, error) {
	payload := make([]byte, 0, min(n, 64<<10))
	for len(payload) < int(n) {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(int(n)-len(payload), len(payload)))
		}
		got, err := io.ReadFull(r, payload[len(payload):min(cap(payload), int(n))])
		payload = payload[:len(payload)+got]
		if err == io.EOF && len(payload) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return payload, err
		}
	}
	return payload, nil
}
