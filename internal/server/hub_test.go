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
	h := NewHub()
	h.Open("j1")
	h.Publish("j1", Event{Type: EventState, State: JobRunning})
	h.Publish("j1", Event{Type: EventProgress, Done: 3, Total: 10})
	h.Publish("j1", Event{Type: EventDone})
	h.Publish("j1", Event{Type: EventProgress, Done: 9, Total: 10}) // after terminal: dropped

	for _, after := range []uint64{0, 1, 2, 3, 4, 1 << 40} {
		history, ch, _ := h.Subscribe("j1", after)
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
			t.Fatalf("after %d: subscriber channel on a finished topic is not closed", after)
		}
	}
}

// TestHubResumeLive: a live subscriber resuming from k continues at k+1
// across the history/live boundary, and one resuming past the current seq
// skips live events up to its seq instead of seeing them twice.
func TestHubResumeLive(t *testing.T) {
	leakCheck(t)
	h := NewHub()
	h.Open("j1")
	h.Publish("j1", Event{Type: EventState, State: JobQueued})
	h.Publish("j1", Event{Type: EventState, State: JobRunning})
	history, mid, _ := h.Subscribe("j1", 1)
	_, ahead, _ := h.Subscribe("j1", 3)
	h.Publish("j1", Event{Type: EventProgress, Done: 1, Total: 2})
	h.Publish("j1", Event{Type: EventProgress, Done: 2, Total: 2})
	h.Publish("j1", Event{Type: EventDone})

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
	h := NewHub()
	h.Open("j1")
	h.Publish("j1", Event{Type: EventState, State: JobQueued})
	history, ch, _ := h.Subscribe("j1", 0)
	if len(history) != 1 {
		t.Fatalf("history %d, want 1", len(history))
	}
	h.Publish("j1", Event{Type: EventProgress, Done: 1, Total: 2})
	h.Publish("j1", Event{Type: EventDone})

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
	h := NewHub()
	h.Open("j1")
	_, slow, _ := h.Subscribe("j1", 0)
	for i := 0; i < subBuffer+8; i++ {
		h.Publish("j1", Event{Type: EventProgress, Done: i + 1, Total: subBuffer + 8})
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
	if rest, _, _ := h.Subscribe("j1", last); len(rest) != 8 || decodeEvent(t, rest[0]).Seq != last+1 {
		t.Fatalf("resume after seq %d replayed %d events, want 8 from seq %d", last, len(rest), last+1)
	}
	// A fresh subscriber still gets the complete history.
	history, _, _ := h.Subscribe("j1", 0)
	if len(history) != subBuffer+8 {
		t.Fatalf("history %d events, want %d", len(history), subBuffer+8)
	}
}

// TestHubUnsubscribeIdempotent: Unsubscribe is safe to repeat and to race
// with a terminal publish (no double close).
func TestHubUnsubscribeIdempotent(t *testing.T) {
	leakCheck(t)
	h := NewHub()
	h.Open("j1")
	_, ch, _ := h.Subscribe("j1", 0)
	h.Unsubscribe("j1", ch)
	h.Unsubscribe("j1", ch)                 // repeat: no panic
	h.Publish("j1", Event{Type: EventDone}) // terminal after detach: no panic
	if _, ok := <-ch; ok {
		t.Fatal("unsubscribed channel not closed")
	}
}

// TestHubDrop disconnects subscribers and forgets the topic entirely.
func TestHubDrop(t *testing.T) {
	leakCheck(t)
	h := NewHub()
	h.Open("j1")
	h.Open("j2")
	h.Publish("j1", Event{Type: EventDone})
	_, ch, _ := h.Subscribe("j2", 0)
	h.Drop("j1")
	h.Drop("j2")
	if _, ok := <-ch; ok {
		t.Fatal("Drop left the subscriber channel open")
	}
	if history, _, ok := h.Subscribe("j1", 0); ok || len(history) != 0 {
		t.Fatalf("dropped topic still open (%v) or replays %d events", ok, len(history))
	}
}

// TestHubDropPublishRace: publishers, subscribers and a dropper race on
// the same topics. A dropped topic is never re-created: once every
// goroutine is done the hub holds no topic and no subscriber, every
// subscriber's channel was closed, and a publish or subscribe after the
// drop finds nothing. CI runs it under -race -count=10.
func TestHubDropPublishRace(t *testing.T) {
	leakCheck(t)
	h := NewHub()
	ids := make([]string, 32)
	for i := range ids {
		ids[i] = fmt.Sprintf("j%d", i)
		h.Open(ids[i])
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 1; round <= 40; round++ {
				for _, id := range ids {
					h.Publish(id, Event{Type: EventProgress, Done: round, Total: 40})
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
			for _, id := range ids {
				// Every channel closes: on the drop, on falling behind, or
				// at once when the topic is already gone. One that stays
				// open belongs to a topic a publish re-created.
				_, ch, _ := h.Subscribe(id, 0)
			drain:
				for {
					select {
					case _, open := <-ch:
						if !open {
							break drain
						}
					case <-ctx.Done():
						t.Errorf("the subscriber channel of %s never closed", id)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, id := range ids {
			runtime.Gosched()
			h.Drop(id)
		}
	}()
	wg.Wait()
	if topics, subs := h.Counts(); topics != 0 || subs != 0 {
		t.Fatalf("%d topics and %d subscribers after every topic was dropped", topics, subs)
	}
	h.Publish(ids[0], Event{Type: EventDone})
	history, ch, ok := h.Subscribe(ids[0], 0)
	if _, open := <-ch; ok || open || history != nil {
		t.Fatalf("subscribe after the drop: ok %v, channel open %v, %d events", ok, open, len(history))
	}
	if topics, _ := h.Counts(); topics != 0 {
		t.Fatalf("a publish after the drop re-created %d topics", topics)
	}
}
