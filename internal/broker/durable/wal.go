// WAL record framing: every record is
//
//	uint32 LE  payload length
//	uint32 LE  CRC-32 (IEEE) of the payload
//	payload    bytes (a JSON broker.Record, but the framing is payload-agnostic)
//
// The frame is what makes replay crash-safe: a torn write (power loss mid
// append) leaves either a short header, a short payload, or a payload whose
// CRC no longer matches — scanRecords stops at the first such record and
// reports the clean prefix length so recovery can truncate the tail away.
package durable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

const recordHeaderBytes = 8

// maxRecordBytes bounds one record's payload so a corrupt length field
// cannot make replay allocate gigabytes. Inventory records carry a whole
// serialized platform, hence the generous bound.
const maxRecordBytes = 256 << 20

// errCorruptRecord marks a record that is present but unreadable: a length
// out of bounds or a CRC mismatch. Like a torn tail, everything from this
// record on is dropped.
var errCorruptRecord = errors.New("durable: corrupt wal record")

// appendRecord frames one payload and writes the frame with a single Write,
// so a log never holds a header whose payload was not part of the same
// write; it returns the bytes written.
func appendRecord(w io.Writer, payload []byte) (int, error) {
	if len(payload) > maxRecordBytes {
		return 0, errCorruptRecord
	}
	frame := make([]byte, recordHeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[recordHeaderBytes:], payload)
	if _, err := w.Write(frame); err != nil {
		return 0, err
	}
	return len(frame), nil
}

// scanRecords reads framed records until EOF or the first torn or corrupt
// record. It returns the intact payloads and the byte length of the clean
// prefix; err is nil for a clean EOF and errCorruptRecord (or an I/O
// error) when the tail must be dropped. Callers truncate the log to good
// and carry on — the dropped records were never acknowledged as durable in
// their entirety, so dropping them is the correct recovery.
func scanRecords(r io.Reader) (payloads [][]byte, good int64, err error) {
	for {
		var hdr [recordHeaderBytes]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return payloads, good, nil // clean end of log
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return payloads, good, errCorruptRecord // torn header
			}
			return payloads, good, err
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxRecordBytes {
			return payloads, good, errCorruptRecord
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return payloads, good, errCorruptRecord // torn payload
			}
			return payloads, good, err
		}
		if crc32.ChecksumIEEE(payload) != want {
			return payloads, good, errCorruptRecord
		}
		payloads = append(payloads, payload)
		good += int64(recordHeaderBytes) + int64(n)
	}
}
