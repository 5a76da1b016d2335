package sim

import (
	"math/rand"
	"testing"
	"time"
)

// refStation is the reference model for Station: the same documented
// semantics (FIFO, claim-before-callback, wake-up penalty) written the
// plainest way, with a slice popped by re-slicing and one closure per
// completion. TestStationMatchesReference drives both through identical
// random workloads on twin engines and compares them after every step.
type refStation struct {
	eng       *Engine
	servers   int
	busy      int
	queue     []stationJob
	idleSince Time

	wakeMean, wakeJitter, wakeThreshold time.Duration

	busyTime  time.Duration
	completed uint64
	maxQueue  int
	wakeups   uint64
}

func (r *refStation) Process(service time.Duration, done func()) {
	if service < 0 {
		service = 0
	}
	if r.busy < r.servers && len(r.queue) == 0 {
		if r.wakeMean > 0 && r.busy == 0 && r.eng.Now()-r.idleSince >= r.wakeThreshold {
			w := time.Duration(r.eng.Rand().Normal(float64(r.wakeMean), float64(r.wakeJitter)))
			if w < r.wakeMean/4 {
				w = r.wakeMean / 4
			}
			service += w
			r.wakeups++
		}
		r.start(stationJob{service: service, done: done})
		return
	}
	r.queue = append(r.queue, stationJob{service: service, done: done})
	if len(r.queue) > r.maxQueue {
		r.maxQueue = len(r.queue)
	}
}

func (r *refStation) start(j stationJob) {
	r.busy++
	r.busyTime += j.service
	r.eng.After(j.service, func() { r.complete(j.done) })
}

func (r *refStation) complete(done func()) {
	r.busy--
	r.completed++
	if r.busy == 0 {
		r.idleSince = r.eng.Now()
	}
	if len(r.queue) > 0 && r.busy < r.servers {
		next := r.queue[0]
		r.queue = r.queue[1:]
		r.start(next)
	}
	if done != nil {
		done()
	}
}

// propWorld is one side of the comparison: an engine, a station under
// test (real or reference), the completion log and the generator that
// decides what each completion callback submits. Both sides seed their
// generators identically, so as long as they agree the draws agree.
type propWorld struct {
	eng     *Engine
	process func(time.Duration, func())
	rng     *rand.Rand
	log     []int
	nextID  int
	maxJobs int
}

// randService draws a service time with zero and negative values mixed in.
func randService(rng *rand.Rand) time.Duration {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return -time.Duration(rng.Intn(5)+1) * time.Microsecond
	default:
		return time.Duration(rng.Intn(50)+1) * time.Microsecond
	}
}

// submit sends one job whose completion logs its id and may submit up to
// three follow-up jobs from inside the callback.
func (w *propWorld) submit(service time.Duration) {
	id := w.nextID
	w.nextID++
	w.process(service, func() {
		w.log = append(w.log, id)
		if w.rng.Intn(3) == 0 {
			for k := w.rng.Intn(3) + 1; k > 0 && w.nextID < w.maxJobs; k-- {
				w.submit(randService(w.rng))
			}
		}
	})
}

func TestStationMatchesReference(t *testing.T) {
	for trial := int64(0); trial < 200; trial++ {
		script := rand.New(rand.NewSource(trial))
		servers := script.Intn(4) + 1
		var wakeMean, wakeJitter, wakeThreshold time.Duration
		if script.Intn(2) == 0 {
			wakeMean = time.Duration(script.Intn(20)+1) * time.Microsecond
			wakeJitter = time.Duration(script.Intn(10)) * time.Microsecond
			wakeThreshold = time.Duration(script.Intn(30)) * time.Microsecond
		}

		st := NewStation(New(trial), "prop", servers)
		st.SetWakeup(wakeMean, wakeJitter, wakeThreshold)
		ref := &refStation{eng: New(trial), servers: servers,
			wakeMean: wakeMean, wakeJitter: wakeJitter, wakeThreshold: wakeThreshold}
		a := &propWorld{eng: st.eng, process: st.Process, rng: rand.New(rand.NewSource(trial)), maxJobs: 600}
		b := &propWorld{eng: ref.eng, process: ref.Process, rng: rand.New(rand.NewSource(trial)), maxJobs: 600}

		// External arrivals: bursts at shared instants (deep queues) and
		// sparse singles (idle gaps, wake-ups), identical on both sides.
		at := Time(0)
		for burst := 0; burst < 30; burst++ {
			at += time.Duration(script.Intn(200)) * time.Microsecond
			size := 1
			if script.Intn(3) == 0 {
				size = script.Intn(60) + 1
			}
			services := make([]time.Duration, size)
			for i := range services {
				services[i] = randService(script)
			}
			for _, w := range []*propWorld{a, b} {
				w.eng.At(at, func() {
					for _, d := range services {
						w.submit(d)
					}
				})
			}
		}

		for step := 0; ; step++ {
			okA, okB := a.eng.step(), b.eng.step()
			if okA != okB {
				t.Fatalf("trial %d step %d: station has events=%v, reference %v", trial, step, okA, okB)
			}
			if !okA {
				break
			}
			if a.eng.Now() != b.eng.Now() {
				t.Fatalf("trial %d step %d: now %v, reference %v", trial, step, a.eng.Now(), b.eng.Now())
			}
			if len(a.log) != len(b.log) || (len(a.log) > 0 && a.log[len(a.log)-1] != b.log[len(b.log)-1]) {
				t.Fatalf("trial %d step %d: completions %v, reference %v", trial, step, a.log, b.log)
			}
			if st.QueueLen() != len(ref.queue) || st.MaxQueue != ref.maxQueue ||
				st.BusyTime != ref.busyTime || st.Completed != ref.completed ||
				st.Wakeups != ref.wakeups || st.Busy() != ref.busy {
				t.Fatalf("trial %d step %d: station queue=%d max=%d busyTime=%v completed=%d wakeups=%d busy=%d, "+
					"reference queue=%d max=%d busyTime=%v completed=%d wakeups=%d busy=%d", trial, step,
					st.QueueLen(), st.MaxQueue, st.BusyTime, st.Completed, st.Wakeups, st.Busy(),
					len(ref.queue), ref.maxQueue, ref.busyTime, ref.completed, ref.wakeups, ref.busy)
			}
		}
		if len(a.log) != a.nextID {
			t.Fatalf("trial %d: %d of %d jobs completed", trial, len(a.log), a.nextID)
		}
	}
}
