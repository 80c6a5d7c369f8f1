package server

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// streamJob returns a queued job whose stream reports to counts.
func streamJob(id string, counts *streamCounts) *job {
	return newJob(id, "s1", KindSweep, func() {}, counts)
}

func decodeEvent(t *testing.T, data []byte) Event {
	t.Helper()
	var ev Event
	if err := json.Unmarshal(data, &ev); err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestHubHistoryReplay: a subscriber attaching after events were published
// — even after the terminal one — replays the ordered history after the
// seq it resumes from: all of it from 0, exactly seqs k+1…3 from k, and
// nothing from the terminal seq or beyond.
func TestHubHistoryReplay(t *testing.T) {
	leakCheck(t)
	j := streamJob("j1", &streamCounts{})
	j.publish(Event{Type: EventState, State: JobRunning})
	j.publish(Event{Type: EventProgress, Done: 3, Total: 10})
	j.publish(Event{Type: EventDone})
	j.publish(Event{Type: EventProgress, Done: 9, Total: 10}) // after terminal: dropped

	for _, after := range []uint64{0, 1, 2, 3, 4, 1 << 40} {
		history, ch, _ := j.subscribe(after)
		want := 3 - int(min(after, 3))
		if len(history) != want {
			t.Fatalf("after %d: replayed %d events, want %d (publishes after the terminal event are dropped)", after, len(history), want)
		}
		for i, data := range history {
			ev := decodeEvent(t, data)
			if ev.Seq != after+uint64(i+1) {
				t.Fatalf("after %d: event %d has seq %d, want contiguous from %d", after, i, ev.Seq, after+1)
			}
			if ev.Job != "j1" {
				t.Fatalf("event carries job %q", ev.Job)
			}
		}
		if want > 0 {
			if last := decodeEvent(t, history[want-1]); last.Type != EventDone {
				t.Fatalf("after %d: last event %q, want done", after, last.Type)
			}
		}
		if _, ok := <-ch; ok {
			t.Fatalf("after %d: subscriber channel on an ended stream is not closed", after)
		}
	}
}

// TestHubResumeLive: a live subscriber resuming from k continues at k+1
// across the history/live boundary, and one resuming past the current seq
// skips live events up to its seq instead of seeing them twice.
func TestHubResumeLive(t *testing.T) {
	leakCheck(t)
	j := streamJob("j1", &streamCounts{})
	j.publish(Event{Type: EventState, State: JobQueued})
	j.publish(Event{Type: EventState, State: JobRunning})
	history, mid, _ := j.subscribe(1)
	_, ahead, _ := j.subscribe(3)
	j.publish(Event{Type: EventProgress, Done: 1, Total: 2})
	j.publish(Event{Type: EventProgress, Done: 2, Total: 2})
	j.publish(Event{Type: EventDone})

	seqs := func(history [][]byte, ch chan []byte) []uint64 {
		var out []uint64
		for _, data := range history {
			out = append(out, decodeEvent(t, data).Seq)
		}
		for data := range ch {
			out = append(out, decodeEvent(t, data).Seq)
		}
		return out
	}
	if got := seqs(history, mid); !slices.Equal(got, []uint64{2, 3, 4, 5}) {
		t.Fatalf("resumed from 1: seqs %v, want [2 3 4 5]", got)
	}
	if got := seqs(nil, ahead); !slices.Equal(got, []uint64{4, 5}) {
		t.Fatalf("resumed from 3 with 2 published: seqs %v, want [4 5]", got)
	}
}

// TestHubLiveDelivery: an early subscriber sees history + live events in
// order, and the terminal event closes its channel.
func TestHubLiveDelivery(t *testing.T) {
	leakCheck(t)
	j := streamJob("j1", &streamCounts{})
	j.publish(Event{Type: EventState, State: JobQueued})
	history, ch, _ := j.subscribe(0)
	if len(history) != 1 {
		t.Fatalf("history %d, want 1", len(history))
	}
	j.publish(Event{Type: EventProgress, Done: 1, Total: 2})
	j.publish(Event{Type: EventDone})

	got := []Event{decodeEvent(t, history[0])}
	for data := range ch {
		got = append(got, decodeEvent(t, data))
	}
	if len(got) != 3 {
		t.Fatalf("saw %d events, want 3", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d: order broken across the history/live boundary", i, ev.Seq)
		}
	}
	if got[2].Type != EventDone {
		t.Fatalf("final event %q, want done", got[2].Type)
	}
}

// TestHubDropsSlowSubscriber: a subscriber that stops draining is
// disconnected once its buffer fills; the publisher never blocks and other
// subscribers are unaffected. Resuming from the last seq it received loses
// and repeats nothing.
func TestHubDropsSlowSubscriber(t *testing.T) {
	leakCheck(t)
	j := streamJob("j1", &streamCounts{})
	_, slow, _ := j.subscribe(0)
	for i := 0; i < subBuffer+8; i++ {
		j.publish(Event{Type: EventProgress, Done: i + 1, Total: subBuffer + 8})
	}
	// The slow channel was closed on overflow: drain to the close marker.
	var last uint64
	n := 0
	for data := range slow {
		last = decodeEvent(t, data).Seq
		n++
	}
	if n != subBuffer {
		t.Fatalf("slow subscriber buffered %d events before the drop, want %d", n, subBuffer)
	}
	if rest, _, _ := j.subscribe(last); len(rest) != 8 || decodeEvent(t, rest[0]).Seq != last+1 {
		t.Fatalf("resume after seq %d replayed %d events, want 8 from seq %d", last, len(rest), last+1)
	}
	// A fresh subscriber still gets the complete history.
	history, _, _ := j.subscribe(0)
	if len(history) != subBuffer+8 {
		t.Fatalf("history %d events, want %d", len(history), subBuffer+8)
	}
}

// TestHubUnsubscribeIdempotent: unsubscribe is safe to repeat and to race
// with a terminal publish (no double close).
func TestHubUnsubscribeIdempotent(t *testing.T) {
	leakCheck(t)
	j := streamJob("j1", &streamCounts{})
	_, ch, _ := j.subscribe(0)
	j.unsubscribe(ch)
	j.unsubscribe(ch)                 // repeat: no panic
	j.publish(Event{Type: EventDone}) // terminal after detach: no panic
	if _, ok := <-ch; ok {
		t.Fatal("unsubscribed channel not closed")
	}
}

// TestHubDrop disconnects subscribers and forgets the stream entirely.
func TestHubDrop(t *testing.T) {
	leakCheck(t)
	counts := &streamCounts{}
	j1, j2 := streamJob("j1", counts), streamJob("j2", counts)
	j1.publish(Event{Type: EventDone})
	_, ch, _ := j2.subscribe(0)
	j1.dropEvents()
	j2.dropEvents()
	if _, ok := <-ch; ok {
		t.Fatal("dropEvents left the subscriber channel open")
	}
	if history, _, ok := j1.subscribe(0); ok || len(history) != 0 {
		t.Fatalf("dropped stream still open (%v) or replays %d events", ok, len(history))
	}
}

// TestHubDropPublishRace: publishers, subscribers and a dropper race on
// the same jobs' streams. A dropped stream never reopens: once every
// goroutine is done no stream is open and no subscriber attached, every
// subscriber's channel was closed, and a publish or subscribe after the
// drop finds nothing. CI runs it under -race -count=10.
func TestHubDropPublishRace(t *testing.T) {
	leakCheck(t)
	counts := &streamCounts{}
	jobs := make([]*job, 32)
	for i := range jobs {
		jobs[i] = streamJob(fmt.Sprintf("j%d", i), counts)
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 1; round <= 40; round++ {
				for _, j := range jobs {
					j.publish(Event{Type: EventProgress, Done: round, Total: 40})
				}
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range jobs {
				// Every channel closes: on the drop, on falling behind, or
				// at once when the stream is already gone. One that stays
				// open belongs to a stream a publish reopened.
				_, ch, _ := j.subscribe(0)
			drain:
				for {
					select {
					case _, open := <-ch:
						if !open {
							break drain
						}
					case <-ctx.Done():
						t.Errorf("the subscriber channel of %s never closed", j.id)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, j := range jobs {
			runtime.Gosched()
			j.dropEvents()
		}
	}()
	wg.Wait()
	if topics, subs := counts.open.Load(), counts.subscribers.Load(); topics != 0 || subs != 0 {
		t.Fatalf("%d streams open and %d subscribers after every stream was dropped", topics, subs)
	}
	jobs[0].publish(Event{Type: EventDone})
	history, ch, ok := jobs[0].subscribe(0)
	if _, open := <-ch; ok || open || history != nil {
		t.Fatalf("subscribe after the drop: ok %v, channel open %v, %d events", ok, open, len(history))
	}
	if topics := counts.open.Load(); topics != 0 {
		t.Fatalf("a publish after the drop reopened %d streams", topics)
	}
}
