package health

import (
	"testing"
	"time"
)

func TestDirectionString(t *testing.T) {
	for d, want := range map[Direction]string{
		DirectionNone: "-", DirectionOutbound: "outbound", DirectionInbound: "inbound", Direction(9): "-",
	} {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", d, got, want)
		}
	}
	if got := StateDegraded.String(); got != "degraded" {
		t.Errorf("StateDegraded.String() = %q", got)
	}
}

// TestRTTOutlierDegradesAndRecovers drives the score model through
// ReportLatency alone: a node far slower than the population median scores
// 1 and is graded degraded after a streak, then recovers once its RTT
// rejoins the pack. An alpha of 1 makes each estimate the latest sample.
func TestRTTOutlierDegradesAndRecovers(t *testing.T) {
	r := newRig(t, 1)
	m := NewMonitor(r.ktxs[0], WithInterval(0), WithIndirectProbes(0),
		WithEWMAAlpha(1), WithOutlierFactor(3), WithDegradeScore(0.5), WithDegradeAfter(2))
	defer m.Close()

	if st := m.Status(7); st.State != StateAlive || st.Score != 0 || st.Node != 7 {
		t.Errorf("unknown node status = %+v, want alive with a zero score", st)
	}
	if s := m.Score(7); s != 0 {
		t.Errorf("unknown node score = %v, want 0", s)
	}

	m.ReportLatency(2, time.Millisecond)
	m.ReportLatency(3, time.Millisecond)
	m.ReportLatency(4, 2*time.Millisecond) // median 1 ms: ratio 2, penalty 0.5
	if s := m.Score(4); s != 0.5 {
		t.Errorf("score at twice the median = %v, want 0.5", s)
	}
	if st := m.State(4); st != StateAlive {
		t.Errorf("one slow answer graded %v, want alive (a streak is a verdict)", st)
	}
	m.ReportLatency(4, 5*time.Millisecond) // ratio 5, penalty clamped to 1
	st := m.Status(4)
	if st.State != StateDegraded || st.Direction != DirectionNone || st.Score != 1 || st.RTT != 5*time.Millisecond {
		t.Errorf("after a streak of two = %+v, want degraded, no direction, score 1, RTT 5ms", st)
	}
	if s := m.Score(2); s != 0 {
		t.Errorf("a node at the median scores %v, want 0", s)
	}

	// Hysteresis: a score between half the threshold and the threshold
	// neither extends nor breaks the streak; below half it clears.
	m.ReportLatency(4, 1600*time.Microsecond) // penalty 0.3
	if st := m.State(4); st != StateDegraded {
		t.Errorf("score 0.3 graded %v, want still degraded", st)
	}
	m.ReportLatency(4, time.Millisecond)
	if st := m.Status(4); st.State != StateAlive || st.Score != 0 {
		t.Errorf("back at the median = %+v, want alive with score 0", st)
	}

	// Suspect and dead nodes score 1 whatever their RTT.
	m.ReportFailure(2)
	m.ReportFailure(2)
	if st, s := m.State(2), m.Score(2); st != StateSuspect || s != 1 {
		t.Errorf("after two misses: %v, score %v; want suspect, 1", st, s)
	}
	if st := m.Status(2); st.Missed != 2 || st.Loss <= 0 {
		t.Errorf("status after two misses = %+v", st)
	}
}

func TestOutlierFactorOneDisablesRTTScoring(t *testing.T) {
	r := newRig(t, 1)
	m := NewMonitor(r.ktxs[0], WithInterval(0), WithIndirectProbes(0), WithOutlierFactor(1))
	defer m.Close()
	m.ReportLatency(2, time.Millisecond)
	m.ReportLatency(3, time.Millisecond)
	for i := 0; i < 5; i++ {
		m.ReportLatency(4, time.Second)
	}
	if st := m.Status(4); st.State != StateAlive || st.Score != 0 {
		t.Errorf("1000× the median with RTT scoring off = %+v, want alive with score 0", st)
	}
}

func TestScoreOptionsIgnoreInvalidValues(t *testing.T) {
	r := newRig(t, 1)
	m := NewMonitor(r.ktxs[0], WithInterval(0),
		WithDegradeScore(0), WithDegradeAfter(0), WithEWMAAlpha(0), WithEWMAAlpha(1.5), WithIndirectProbes(-1))
	defer m.Close()
	if m.degradeScore != 0.5 || m.degradeAfter != 3 || m.rttAlpha != 0.2 || m.lossAlpha != 0.2 || m.indirectK != 2 {
		t.Errorf("invalid option values changed the defaults: score %v after %d alpha %v/%v k %d",
			m.degradeScore, m.degradeAfter, m.rttAlpha, m.lossAlpha, m.indirectK)
	}
	if !m.proberOn || !m.inboundOn {
		t.Error("default indirect probing left the prober or the inbound hook off")
	}
}

func TestMedianRTTEvenPopulation(t *testing.T) {
	r := newRig(t, 1)
	m := NewMonitor(r.ktxs[0], WithInterval(0), WithIndirectProbes(0))
	defer m.Close()
	m.ReportLatency(2, time.Millisecond)
	m.mu.Lock()
	if med := m.medianRTT(); med != 0 {
		t.Errorf("median of one sample = %v, want 0 (no population)", med)
	}
	m.mu.Unlock()
	m.ReportLatency(3, 3*time.Millisecond)
	m.ReportSuccess(4) // untimed: not part of the population
	m.mu.Lock()
	defer m.mu.Unlock()
	if med := m.medianRTT(); med != float64(2*time.Millisecond) {
		t.Errorf("median of 1 ms and 3 ms = %v, want 2 ms", time.Duration(med))
	}
}
