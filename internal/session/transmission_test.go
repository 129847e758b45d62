package session

import (
	"testing"
	"time"

	"repro/internal/wire"
)

func TestFirstTransmissionIsNeverExpired(t *testing.T) {
	tab := NewTable(Config{MaxSessions: 1, RepliesPerSession: 2})
	for seq := uint64(2); seq <= 5; seq++ {
		tab.Begin(7, seq)
		tab.Commit(7, seq, wire.KindReply, false, nil)
	}
	// Below the floor: a retransmission is refused, a first transmission runs.
	if v, _ := tab.BeginTransmission(7, 1, true); v != Expired {
		t.Fatalf("forgotten retransmission = %v, want expired", v)
	}
	if v, _ := tab.BeginTransmission(7, 1, false); v != Fresh {
		t.Fatalf("first transmission below the floor = %v, want fresh", v)
	}
	if v, _ := tab.BeginTransmission(7, 1, true); v != InFlight {
		t.Fatalf("its retransmission while running = %v, want in-flight", v)
	}
	tab.Commit(7, 1, wire.KindReply, false, []byte("late"))
	if v, e := tab.BeginTransmission(7, 1, true); v != Replay || string(e.Payload) != "late" {
		t.Fatalf("its retransmission after commit = %v, want replay", v)
	}
	// Behind a tombstone the same rule holds.
	tab.Begin(8, 1) // evicts session 7, tombstoned at high=5
	if v, _ := tab.BeginTransmission(7, 3, true); v != Expired {
		t.Fatalf("retransmission behind a tombstone = %v, want expired", v)
	}
	if v, _ := tab.BeginTransmission(7, 3, false); v != Fresh {
		t.Fatalf("first transmission behind a tombstone = %v, want fresh", v)
	}
}

func TestUntimedTableNeverReadsTheClock(t *testing.T) {
	tab := NewTable(Config{now: func() time.Time {
		t.Error("a table without a TTL read the clock")
		return time.Time{}
	}})
	tab.Begin(7, 1)
	tab.Commit(7, 1, wire.KindReply, false, nil)
	tab.Commit(8, 1, wire.KindReply, false, nil) // revives
	tab.Sweep()
}

func TestTimedTableReadsTheClockOncePerRequest(t *testing.T) {
	tab, _ := newClockTable(Config{TTL: time.Minute})
	reads := 0
	clock := tab.cfg.now
	tab.cfg.now = func() time.Time { reads++; return clock() }
	for seq := uint64(1); seq <= 3; seq++ {
		tab.Begin(7, seq)
		tab.Commit(7, seq, wire.KindReply, false, nil)
	}
	if reads != 3 {
		t.Errorf("3 requests read the clock %d times, want 3", reads)
	}
}
