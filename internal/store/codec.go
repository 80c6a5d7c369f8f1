package store

import (
	"bytes"
	"encoding/binary"

	"optima/internal/codec"
	"optima/internal/engine"
)

// Format v2: a segment is a sequence of records, each one internal/codec
// frame (u32 body length, u32 CRC32 of the body) whose body is
//
//	string   fingerprint
//	string   backend name
//	job      the key's six words
//	metrics  the seven metric words
//
// Metrics.Config and Metrics.Cond are not stored; they come back from the
// key.
//
// Any decode failure (a short or out-of-bound length, a CRC mismatch, a
// malformed body, a non-finite metric) ends the segment's readable prefix:
// everything behind a bad record is unreliable, so the loader keeps the
// prefix and compacts.

// recordBodyFixedLen is the fixed-width part of a record body: the two
// string length prefixes, the job and the metrics.
const recordBodyFixedLen = 2 + 2 + codec.JobLen + codec.MetricsLen

// maxRecordLen bounds a record's body. Fingerprints are 32-byte hex
// strings and backend names are short identifiers, so a length prefix
// beyond this bound is framing damage, not a large record.
const maxRecordLen = 1 << 16

// words are a result's seven metric words in codec.AppendMetrics order, the
// index's value per key; metrics takes Config and Cond back from the key,
// as codec's decoder takes them from the job.
type words [7]float64

func toWords(m engine.Metrics) words {
	return words{m.EpsMul, m.EpsLarge, m.EpsSmall, m.EMul, m.SigmaMaxLSB, m.SigmaMaxVolt, m.LSBVolt}
}

func (w words) metrics(key engine.Key) engine.Metrics {
	return engine.Metrics{Config: key.Config, Cond: key.Cond, EpsMul: w[0], EpsLarge: w[1], EpsSmall: w[2],
		EMul: w[3], SigmaMaxLSB: w[4], SigmaMaxVolt: w[5], LSBVolt: w[6]}
}

// appendRecord appends the v2 form of one record to buf and returns the
// extended slice.
func appendRecord(buf []byte, rec record) []byte {
	start := len(buf)
	buf = codec.Begin(buf, recordBodyFixedLen+len(rec.FP)+len(rec.Key.Backend))
	buf = codec.AppendStr(buf, rec.FP)
	buf = codec.AppendStr(buf, rec.Key.Backend)
	buf = codec.AppendJob(buf, rec.Key.Job)
	return codec.End(codec.AppendMetrics(buf, rec.Met), start)
}

// decodeRecord decodes the record at the head of data. It returns the
// record's key and metric words, whether its fingerprint is fp (compared in
// place: a foreign record allocates nothing), the bytes consumed, and
// whether the head held a complete, intact record. A key naming backend, the
// previous record's, shares that string. ok == false means the readable
// prefix of the segment ends here; it is never fatal to the caller, whose
// loader repairs by compaction.
func decodeRecord(data []byte, fp, backend string) (key engine.Key, met words, own bool, n int, ok bool) {
	body, n, err := codec.Frame(data, maxRecordLen)
	if err != nil {
		return engine.Key{}, words{}, false, 0, false
	}
	r := codec.NewReader(body)
	own = string(r.StrBytes()) == fp
	key.Backend = backend
	if b := r.StrBytes(); string(b) != backend {
		key.Backend = string(b)
	}
	key.Job = r.Job()
	met = toWords(r.Metrics())
	if r.Done() != nil {
		return engine.Key{}, words{}, false, 0, false
	}
	return key, met, own, n, true
}

// countFrames counts the frames data's length prefixes span whose body
// begins with fingerprint fp, up to the first prefix over maxRecordLen or
// past the end. It checks no CRC: the count only sizes an index, which a
// segment of foreign records leaves empty, and decoding still stops at a
// bad record.
func countFrames(data []byte, fp string) (n int) {
	own := codec.AppendStr(nil, fp) // how a body written under fp begins
	for len(data) >= codec.HeaderLen {
		size := binary.LittleEndian.Uint32(data)
		if size > maxRecordLen || int(size) > len(data)-codec.HeaderLen {
			break
		}
		if bytes.HasPrefix(data[codec.HeaderLen:codec.HeaderLen+int(size)], own) {
			n++
		}
		data = data[codec.HeaderLen+int(size):]
	}
	return n
}
