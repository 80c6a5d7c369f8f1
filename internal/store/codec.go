package store

import "optima/internal/codec"

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
// record, the bytes consumed, and whether the head held a complete, intact
// record. ok == false means the readable prefix of the segment ends here;
// it is never fatal to the caller, whose loader repairs by compaction.
func decodeRecord(data []byte) (rec record, n int, ok bool) {
	body, n, err := codec.Frame(data, maxRecordLen)
	if err != nil {
		return record{}, 0, false
	}
	r := codec.NewReader(body)
	rec.FP = r.Str()
	rec.Key.Backend = r.Str()
	rec.Key.Job = r.Job()
	rec.Met = r.Metrics()
	if r.Done() != nil {
		return record{}, 0, false
	}
	rec.Met.Config, rec.Met.Cond = rec.Key.Config, rec.Key.Cond
	return rec, n, true
}
