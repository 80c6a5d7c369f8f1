package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"optima/internal/device"
	"optima/internal/engine"
	"optima/internal/mult"
)

func testFrame() []byte {
	buf := Begin(nil, 0)
	buf = AppendStr(buf, "fp")
	buf = AppendJob(buf, engine.Job{
		Config: mult.Config{Tau0: math.Copysign(0, -1), VDAC0: 5e-324, VDACFS: 1e300},
		Cond:   device.PVT{Corner: device.CornerFF, VDD: 1.1, TempC: -40},
	})
	return End(AppendMetrics(buf, engine.Metrics{EpsMul: 0.25, LSBVolt: 4e-3}), 0)
}

// TestFrameRoundTrip: what Begin/Append/End write, Frame and a Reader read
// back bit for bit, and a body over the reader's bound is refused.
func TestFrameRoundTrip(t *testing.T) {
	frame := testFrame()
	body, n, err := Frame(frame, len(frame)-HeaderLen)
	if err != nil || n != len(frame) {
		t.Fatalf("Frame: n=%d err=%v", n, err)
	}
	r := NewReader(body)
	fp, job, met := r.Str(), r.Job(), r.Metrics()
	if err := r.Done(); err != nil || fp != "fp" || met.EpsMul != 0.25 || met.LSBVolt != 4e-3 {
		t.Fatalf("read back %q %+v %+v: %v", fp, job, met, err)
	}
	if math.Float64bits(job.Config.Tau0) != 1<<63 || job.Config.VDAC0 != 5e-324 || job.Cond.Corner != device.CornerFF {
		t.Fatalf("job words changed: %+v", job)
	}
	if _, _, err := Frame(frame, len(frame)-HeaderLen-1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("body over the bound: %v, want ErrCorrupt", err)
	}
}

// TestReadFrameRefusesBeforeBody: a header over the bound is refused
// without reading, or waiting for, the body it claims.
func TestReadFrameRefusesBeforeBody(t *testing.T) {
	frame := testFrame()
	if _, _, err := ReadFrame(bytes.NewReader(frame[:HeaderLen]), 8); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized header: %v, want ErrCorrupt", err)
	}
	body, n, err := ReadFrame(bytes.NewReader(frame), 1<<10)
	if err != nil || n != len(frame) || !bytes.Equal(body, frame[HeaderLen:]) {
		t.Fatalf("ReadFrame: n=%d err=%v", n, err)
	}
}

// TestReaderStrict: the first failure sticks and later reads return zero
// values, trailing bytes are an error, and so is any non-finite metric.
func TestReaderStrict(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if v := r.U32(); v != 0 || r.U8() != 0 || r.Done() == nil {
		t.Fatal("a truncated read did not stick")
	}
	r = NewReader([]byte{7, 0})
	if r.U8() != 7 || r.Done() == nil {
		t.Fatal("a trailing byte was accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for w := 0; w < 7; w++ {
			m := engine.Metrics{EpsMul: 1, EMul: 1, LSBVolt: 1}
			*[]*float64{&m.EpsMul, &m.EpsLarge, &m.EpsSmall, &m.EMul, &m.SigmaMaxLSB, &m.SigmaMaxVolt, &m.LSBVolt}[w] = bad
			r := NewReader(AppendMetrics(nil, m))
			if got := r.Metrics(); got != (engine.Metrics{}) || !errors.Is(r.Done(), ErrCorrupt) {
				t.Fatalf("metrics with word %d = %v decoded as %+v", w, bad, got)
			}
		}
	}
}
