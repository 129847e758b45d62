package wire

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// alwaysStage forces staged mode from the first send: every gap counts as
// a burst and a burst of one is enough to enter.
func alwaysStage() CoalescerConfig {
	return CoalescerConfig{BurstGap: time.Hour, EnterBurst: 1}
}

// gateSend is a send func whose first call blocks until released, so a
// test can pin the flusher mid-send and pile frames up behind it
// deterministically.
type gateSend struct {
	mu      sync.Mutex
	sent    []Frame
	block   chan struct{}
	blocked chan struct{}
	once    sync.Once
}

func newGateSend() *gateSend {
	return &gateSend{block: make(chan struct{}), blocked: make(chan struct{})}
}

func (g *gateSend) send(f *Frame) error {
	first := false
	g.once.Do(func() { first = true })
	if first {
		close(g.blocked)
		<-g.block
	}
	g.mu.Lock()
	g.sent = append(g.sent, f.Clone())
	g.mu.Unlock()
	return nil
}

func (g *gateSend) frames() []Frame {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Frame(nil), g.sent...)
}

// memberIDs lists the ReqIDs a transport-level frame carries: a train's
// members in order, or the frame's own.
func memberIDs(t *testing.T, f Frame) []uint64 {
	t.Helper()
	if f.Kind != KindTrain {
		return []uint64{f.ReqID}
	}
	var ids []uint64
	if _, rejected, err := ForEachTrainMember(f.Payload, func(m *Frame) { ids = append(ids, m.ReqID) }); err != nil || rejected != 0 {
		t.Fatalf("train unpack: rejected=%d err=%v", rejected, err)
	}
	return ids
}

// wantTrains checks that the transport saw exactly these train sizes, in
// this order, carrying ReqIDs 100, 101, … without gap or reordering.
func wantTrains(t *testing.T, frames []Frame, sizes ...int) {
	t.Helper()
	if len(frames) != len(sizes) {
		t.Fatalf("transport saw %d frames, want %d (%v)", len(frames), len(sizes), sizes)
	}
	next := uint64(100)
	for i, f := range frames {
		ids := memberIDs(t, f)
		if len(ids) != sizes[i] {
			t.Fatalf("frame %d carries %d members, want %d", i, len(ids), sizes[i])
		}
		for _, id := range ids {
			if id != next {
				t.Fatalf("frame %d carries reqID %d, want %d (staging order)", i, id, next)
			}
			next++
		}
	}
}

func TestCoalescerPassthroughWhenNotCapable(t *testing.T) {
	var sent []Frame
	co := NewCoalescer(1, func(f *Frame) error {
		sent = append(sent, f.Clone())
		return nil
	}, CoalescerConfig{})
	defer co.Close()
	f := trainMember(0)
	if err := co.Send(&f); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 || sent[0].Kind != KindRequest {
		t.Fatalf("expected 1 untouched frame, got %v", sent)
	}
	st := co.Stats()
	if st.DirectSends != 1 || st.TrainsSent != 0 || st.StagedFrames != 0 {
		t.Fatalf("stats = %+v, want pure passthrough", st)
	}
}

func TestCoalescerInlineWhenIdle(t *testing.T) {
	sendErr := errors.New("transport down")
	var sent []Frame
	fail := false
	co := NewCoalescer(1, func(f *Frame) error {
		if fail {
			return sendErr
		}
		sent = append(sent, f.Clone())
		return nil
	}, CoalescerConfig{})
	defer co.Close()
	co.MarkCapable(3)
	if !co.Capable(3) {
		t.Fatal("MarkCapable did not stick")
	}

	// Sends spaced wider than the burst gap never build a burst: every
	// one goes inline, immediately, and the transport's error surfaces
	// to the caller.
	for i := 0; i < 5; i++ {
		f := trainMember(i)
		if err := co.Send(&f); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Microsecond)
	}
	fail = true
	f := trainMember(9)
	if err := co.Send(&f); !errors.Is(err, sendErr) {
		t.Fatalf("inline send error = %v, want %v", err, sendErr)
	}
	for _, g := range sent {
		if g.Kind == KindTrain {
			t.Fatalf("idle sender produced a train: %+v", g)
		}
	}
	st := co.Stats()
	if st.InlineSends != 6 || st.StagedFrames != 0 || st.TrainsSent != 0 {
		t.Fatalf("stats = %+v, want 6 inline sends and nothing staged", st)
	}
}

func TestCoalescerStagesBehindFlusher(t *testing.T) {
	gate := newGateSend()
	co := NewCoalescer(1, gate.send, alwaysStage())
	co.MarkCapable(3)

	// First staged frame wakes the flusher, which drains it alone — an
	// unwrapped solo send — and sticks in the gated transport.
	first := trainMember(0)
	if err := co.Send(&first); err != nil {
		t.Fatal(err)
	}
	<-gate.blocked

	// These pile up behind the pinned flusher; they must stage and
	// return without waiting for the transport.
	const staged = 6
	for i := 1; i <= staged; i++ {
		f := trainMember(i)
		if err := co.Send(&f); err != nil {
			t.Fatalf("staged send %d: %v", i, err)
		}
	}
	close(gate.block)
	co.Close() // waits for the flusher's final drain

	frames := gate.frames()
	if len(frames) != 2 {
		t.Fatalf("transport saw %d frames, want 2 (solo + one train): %v", len(frames), frames)
	}
	if frames[0].Kind != KindRequest || frames[0].ReqID != first.ReqID {
		t.Fatalf("first frame is not the unwrapped solo member: %+v", frames[0])
	}
	tf := frames[1]
	if tf.Kind != KindTrain || tf.Dst.Node != 3 || tf.Src.Node != 1 || tf.Object != KernelObject {
		t.Fatalf("second frame is not a well-addressed train: %+v", tf)
	}
	if tf.Flags&FlagTrains == 0 || tf.Flags&FlagOneWay == 0 {
		t.Fatalf("train flags = %04x, want FlagOneWay|FlagTrains set", tf.Flags)
	}
	var ids []uint64
	members, rejected, err := ForEachTrainMember(tf.Payload, func(m *Frame) {
		ids = append(ids, m.ReqID)
	})
	if err != nil || rejected != 0 || members != staged {
		t.Fatalf("train unpack: members=%d rejected=%d err=%v", members, rejected, err)
	}
	for i, id := range ids {
		if want := uint64(100 + i + 1); id != want {
			t.Fatalf("member %d reqID = %d, want %d (staging order preserved)", i, id, want)
		}
	}
	// The six staged behind the pinned drain passed the cut threshold on
	// the way, and none of them cut: that train would have overtaken the
	// solo frame still in the transport.
	st := co.Stats()
	if st.StagedFrames != staged+1 || st.SoloFlushes != 1 || st.TrainsSent != 1 ||
		st.TrainFrames != staged || st.FlushDrain != 1 || st.FlushCut != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.AvgFill(); got != float64(staged) {
		t.Fatalf("AvgFill = %v, want %d", got, staged)
	}
}

func TestCoalescerSplitsAtMaxFrames(t *testing.T) {
	gate := newGateSend()
	cfg := alwaysStage()
	cfg.MaxFrames = 3
	co := NewCoalescer(1, gate.send, cfg)
	co.MarkCapable(3)

	first := trainMember(0)
	if err := co.Send(&first); err != nil {
		t.Fatal(err)
	}
	<-gate.blocked
	for i := 1; i <= 7; i++ {
		f := trainMember(i)
		if err := co.Send(&f); err != nil {
			t.Fatal(err)
		}
	}
	close(gate.block)
	co.Close()

	// 7 members at cap 3 chunk as 3+3+1; the final single-member chunk is
	// unwrapped, so the transport sees solo, train(3), train(3), solo.
	var trains, carried, solos int
	for i, f := range gate.frames() {
		if i == 0 {
			continue // the pinned solo
		}
		switch f.Kind {
		case KindTrain:
			members, rejected, err := ForEachTrainMember(f.Payload, func(m *Frame) {})
			if err != nil || rejected != 0 {
				t.Fatalf("unpack: rejected=%d err=%v", rejected, err)
			}
			if members > 3 {
				t.Fatalf("train carries %d members, cap is 3", members)
			}
			trains++
			carried += members
		case KindRequest:
			solos++
		default:
			t.Fatalf("unexpected frame kind %v", f.Kind)
		}
	}
	if trains != 2 || carried != 6 || solos != 1 {
		t.Fatalf("got %d trains carrying %d + %d solos, want 2 trains carrying 6 + 1 solo", trains, carried, solos)
	}
	if st := co.Stats(); st.FlushFull != 2 || st.FlushDrain != 0 || st.FlushCut != 0 || st.SoloFlushes != 2 {
		t.Fatalf("flush reasons = full:%d drain:%d cut:%d solo:%d, want 2/0/0/2", st.FlushFull, st.FlushDrain, st.FlushCut, st.SoloFlushes)
	}
}

func TestCoalescerAdaptiveModeSwitch(t *testing.T) {
	var mu sync.Mutex
	var sent []Frame
	co := NewCoalescer(1, func(f *Frame) error {
		mu.Lock()
		sent = append(sent, f.Clone())
		mu.Unlock()
		return nil
	}, CoalescerConfig{})
	co.MarkCapable(3)

	// A tight send loop is one long burst: after EnterBurst back-to-back
	// sends the destination must flip to staged mode and start handing
	// frames to the flusher.
	const total = 400
	for i := 0; i < total; i++ {
		f := trainMember(i)
		if err := co.Send(&f); err != nil {
			t.Fatal(err)
		}
	}
	co.Close()

	st := co.Stats()
	if st.StagedFrames == 0 {
		t.Fatalf("stats = %+v: tight loop never tripped staged mode", st)
	}
	if st.InlineSends == 0 {
		t.Fatalf("stats = %+v: first sends should have been inline", st)
	}
	// Every frame must come out exactly once: inline, solo, or in a train.
	mu.Lock()
	defer mu.Unlock()
	delivered := 0
	for i := range sent {
		if sent[i].Kind == KindTrain {
			members, rejected, err := ForEachTrainMember(sent[i].Payload, func(*Frame) {})
			if err != nil || rejected != 0 {
				t.Fatalf("unpack: rejected=%d err=%v", rejected, err)
			}
			delivered += members
		} else {
			delivered++
		}
	}
	if delivered != total {
		t.Fatalf("delivered %d frames, want %d", delivered, total)
	}
	if st.InlineSends+st.StagedFrames != total {
		t.Fatalf("stats = %+v: inline+staged != %d", st, total)
	}
	// Cut by a sender or swept by the flusher, a staged frame leaves as a
	// train member or as an unwrapped solo — nothing else, and none twice.
	if st.TrainFrames+st.SoloFlushes != st.StagedFrames || st.SendErrors != 0 {
		t.Fatalf("stats = %+v: train members + solos != staged", st)
	}
}

func TestCoalescerUrgentAndOversizedBypass(t *testing.T) {
	var sent []Frame
	co := NewCoalescer(1, func(f *Frame) error {
		sent = append(sent, f.Clone())
		return nil
	}, CoalescerConfig{MaxBytes: 128})
	defer co.Close()
	co.MarkCapable(3)

	urgent := trainMember(0)
	urgent.Flags |= FlagUrgent
	if err := co.Send(&urgent); err != nil {
		t.Fatal(err)
	}
	big := trainMember(1)
	big.Payload = make([]byte, 256)
	if err := co.Send(&big); err != nil {
		t.Fatal(err)
	}
	for _, f := range sent {
		if f.Kind == KindTrain {
			t.Fatalf("urgent/oversized frame rode a train: %+v", f)
		}
	}
	if st := co.Stats(); st.DirectSends != 2 {
		t.Fatalf("DirectSends = %d, want 2", st.DirectSends)
	}
}

func TestCoalescerCloseIsIdempotentAndSendsPassThrough(t *testing.T) {
	var sent []Frame
	co := NewCoalescer(1, func(f *Frame) error {
		sent = append(sent, f.Clone())
		return nil
	}, alwaysStage())
	co.MarkCapable(3)
	co.Close()
	co.Close()
	f := trainMember(0)
	if err := co.Send(&f); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 || sent[0].Kind != KindRequest {
		t.Fatalf("post-Close send not inline: %v", sent)
	}
	if st := co.Stats(); st.DirectSends != 1 || st.StagedFrames != 0 {
		t.Fatalf("stats = %+v, want direct passthrough after Close", st)
	}
}

// newOpenSend is a gateSend whose gate is already open: it only records
// what the transport saw.
func newOpenSend() *gateSend {
	g := newGateSend()
	close(g.block)
	return g
}

// stageN sends members from..to-1 from the calling goroutine.
func stageN(t *testing.T, co *Coalescer, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		f := trainMember(i)
		if err := co.Send(&f); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
}

func TestCoalescerCutsAtDoublingThreshold(t *testing.T) {
	// One P and a sender that never blocks: the flusher cannot run until
	// Close, so every train seen before it was cut by the sender itself.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := newOpenSend()
	co := NewCoalescer(1, tr.send, alwaysStage())
	co.MarkCapable(3)

	stageN(t, co, 0, 16)
	wantTrains(t, tr.frames(), 2, 4, 8)
	if st := co.Stats(); st.FlushCut != 3 || st.FlushDrain != 0 || st.StagedFrames != 16 {
		t.Fatalf("stats before Close = %+v, want 3 cuts and no drain", st)
	}
	co.Close() // the flusher sweeps the two the 16-cut never saw
	wantTrains(t, tr.frames(), 2, 4, 8, 2)
	if st := co.Stats(); st.FlushCut != 3 || st.FlushDrain != 1 || st.TrainFrames != 16 {
		t.Fatalf("stats after Close = %+v, want 3 cuts and 1 drain", st)
	}
}

func TestCoalescerCutThresholdResetsWhenDry(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := newOpenSend()
	co := NewCoalescer(1, tr.send, alwaysStage())
	defer co.Close()
	co.MarkCapable(3)

	stageN(t, co, 0, 6) // cut at 2 and at 4; the next would be at 8
	wantTrains(t, tr.frames(), 2, 4)
	dq := co.queue(3)
	cut := func() int {
		dq.mu.Lock()
		defer dq.mu.Unlock()
		return dq.cut
	}
	if got := cut(); got != 8 {
		t.Fatalf("cut threshold after two cuts = %d, want 8", got)
	}
	// The flusher, woken by the first frame of each train, finds nothing
	// left to sweep: the burst is over and the next one starts at 2.
	for deadline := time.Now().Add(5 * time.Second); cut() != firstCut; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("cut threshold = %d after the flusher ran dry, want %d", cut(), firstCut)
		}
	}
	stageN(t, co, 6, 8)
	wantTrains(t, tr.frames(), 2, 4, 2)
}

// waitDelivered polls until the transport has seen want members (trains
// unpacked) and fails the test at the deadline: a frame staged with no one
// left to emit it never arrives.
func waitDelivered(t *testing.T, delivered func() int, want int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); delivered() != want; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames delivered: the rest are stranded", delivered(), want)
		}
	}
}

// TestCoalescerCutPinnedKeepsOrder pins a sender's cut in the transport:
// frames staged meanwhile pass the next threshold, must not be cut past
// the train in flight, and — with no further send and no Close to rescue
// them — are swept by the flusher once it lands.
func TestCoalescerCutPinnedKeepsOrder(t *testing.T) {
	// One P: the cutter stages both frames before the flusher its first
	// one woke can run, so it is the cut that gets pinned, not a drain.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	gate := newGateSend()
	co := NewCoalescer(1, gate.send, alwaysStage())
	defer co.Close()
	co.MarkCapable(3)

	cutter := make(chan struct{})
	go func() {
		defer close(cutter)
		for i := 0; i < 2; i++ { // the second send cuts and sticks in the transport
			f := trainMember(i)
			if err := co.Send(&f); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	}()
	<-gate.blocked
	stageN(t, co, 2, 8) // returns: staging never waits for the transport
	for i := 0; i < 4; i++ {
		runtime.Gosched() // the woken flusher runs into the emission in progress
	}
	if n := len(gate.frames()); n != 0 {
		t.Fatalf("%d frames overtook the pinned cut", n)
	}
	close(gate.block)
	<-cutter
	waitDelivered(t, func() (n int) {
		for _, f := range gate.frames() {
			n += len(memberIDs(t, f))
		}
		return n
	}, 8)

	wantTrains(t, gate.frames(), 2, 6)
	if st := co.Stats(); st.FlushCut != 1 || st.FlushDrain != 1 || st.SendErrors != 0 {
		t.Fatalf("stats = %+v, want one cut and one drain", st)
	}
}

// TestCoalescerCloseWaitsForPinnedCut closes the coalescer while a sender's
// cut sits in the transport: Close must not return before that train has
// landed, so that nothing staged is still on its way out afterwards.
func TestCoalescerCloseWaitsForPinnedCut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // the cut gets pinned, not a drain
	gate := newGateSend()
	co := NewCoalescer(1, gate.send, alwaysStage())
	co.MarkCapable(3)

	cutter := make(chan struct{})
	go func() {
		defer close(cutter)
		for i := 0; i < 2; i++ { // the second send cuts and sticks in the transport
			f := trainMember(i)
			if err := co.Send(&f); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	}()
	<-gate.blocked
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		co.Close()
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a sender's cut was still in the transport")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate.block)
	<-closed
	// Close waited on the emission, not on the sender: the train is in the
	// transport's hands by now even if the cutter has yet to return.
	wantTrains(t, gate.frames(), 2)
	<-cutter
	if st := co.Stats(); st.FlushCut != 1 || st.FlushDrain != 0 || st.SendErrors != 0 {
		t.Fatalf("stats = %+v, want the one cut and nothing left to drain", st)
	}
}

// TestCoalescerNoStrandedFrame has eight senders race cuts, the flusher
// and the mode switch through a slow transport, in short rounds so the
// traffic keeps stopping at arbitrary points, and after each round waits
// — without Close — for every frame to have come out exactly once.
func TestCoalescerNoStrandedFrame(t *testing.T) {
	const senders, rounds, per = 8, 50, 10
	var (
		mu   sync.Mutex
		seen = make(map[uint64]int)
	)
	co := NewCoalescer(1, func(f *Frame) error {
		time.Sleep(10 * time.Microsecond)
		mu.Lock()
		defer mu.Unlock()
		if f.Kind != KindTrain {
			seen[f.ReqID]++
			return nil
		}
		if _, rejected, err := ForEachTrainMember(f.Payload, func(m *Frame) { seen[m.ReqID]++ }); err != nil || rejected != 0 {
			t.Errorf("train unpack: rejected=%d err=%v", rejected, err)
		}
		return nil
	}, alwaysStage())
	defer co.Close()
	co.MarkCapable(3)

	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					f := trainMember(0)
					f.ReqID = uint64((r*senders+s)*per + i)
					if err := co.Send(&f); err != nil {
						t.Errorf("sender %d send %d: %v", s, i, err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		waitDelivered(t, func() int {
			mu.Lock()
			defer mu.Unlock()
			return len(seen)
		}, (r+1)*senders*per)
	}
	mu.Lock()
	defer mu.Unlock()
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("frame %d delivered %d times", id, n)
		}
	}
	if st := co.Stats(); st.FlushCut == 0 || st.SendErrors != 0 {
		t.Fatalf("stats = %+v, want cuts and no send errors", st)
	}
}
