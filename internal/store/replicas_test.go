package store

import (
	"math/rand"
	"slices"
	"testing"

	"ramcloud/internal/wire"
)

// TestReplicas pins each replication decision a master makes: which
// backups a segment opens on, what a timeout leaves in its set, which
// substitute is asked for, and how the will is cut. The last two cases
// pin two known faults as they stand today; ROADMAP 3 changes them.
func TestReplicas(t *testing.T) {
	peers := []int32{1, 2, 3, 4, 5, 6} // self among them, as the cluster lists its servers
	const seg = 7
	for _, c := range []struct {
		name  string
		self  int32
		fixed bool
		peers []int32
		down  []int32 // unreachable, not marked dead
		run   func(t *testing.T, r *Replicas)
	}{
		{name: "scatter draws one shuffle of the eligible peers", self: 3, run: func(t *testing.T, r *Replicas) {
			ref, rng := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
			want := []int32{1, 2, 4, 5, 6}
			ref.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
			set, opened := r.Open(seg, 3, rng)
			if !opened || !slices.Equal(set, want[:3]) {
				t.Fatalf("Open = %v (opened %v), want %v", set, opened, want[:3])
			}
			if again, opened := r.Open(seg, 3, rng); opened || !slices.Equal(again, set) {
				t.Fatalf("second Open = %v (opened %v), want the first set unopened", again, opened)
			}
			if ref.Int63() != rng.Int63() {
				t.Fatal("the generators diverged: Open drew other than one shuffle")
			}
		}},
		{name: "ring order starts past self and wraps", self: 3, fixed: true, run: func(t *testing.T, r *Replicas) {
			// A nil generator: the ring draws nothing.
			if set, _ := r.Open(seg, 4, nil); !slices.Equal(set, []int32{4, 5, 6, 1}) {
				t.Fatalf("Open = %v, want [4 5 6 1]", set)
			}
		}},
		{name: "ring past the highest id starts at the lowest", self: 6, fixed: true, run: func(t *testing.T, r *Replicas) {
			if set, _ := r.Open(seg, 2, nil); !slices.Equal(set, []int32{1, 2}) {
				t.Fatalf("Open = %v, want [1 2]", set)
			}
		}},
		{name: "fewer eligible peers than rf are all used", self: 1, fixed: true, peers: []int32{1, 2, 3, 4}, down: []int32{3}, run: func(t *testing.T, r *Replicas) {
			if set, _ := r.Open(seg, 4, nil); !slices.Equal(set, []int32{2, 4}) {
				t.Fatalf("Open = %v, want [2 4]", set)
			}
			if r.Dead(3) {
				t.Fatal("an unreachable peer was marked dead")
			}
		}},
		{name: "the substitute is the first eligible peer outside the set", self: 1, fixed: true, down: []int32{5}, run: func(t *testing.T, r *Replicas) {
			r.Open(seg, 3, nil) // [2 3 4]
			sub, ok := r.Fail(seg, 3, true)
			if !ok || sub != 6 {
				t.Fatalf("Fail = %d, %v; want 6 (5 is down, 2 and 4 in the set)", sub, ok)
			}
			if !r.Dead(3) || !slices.Equal(r.Set(seg), []int32{2, 4}) {
				t.Fatalf("after Fail: dead(3) %v, set %v; want true, [2 4]", r.Dead(3), r.Set(seg))
			}
			r.Join(seg, sub, true)
			if !slices.Equal(r.Set(seg), []int32{2, 4, 6}) {
				t.Fatalf("after Join: set %v, want [2 4 6]", r.Set(seg))
			}
		}},
		{name: "no substitute leaves the set degraded", self: 1, fixed: true, peers: []int32{1, 2, 3}, run: func(t *testing.T, r *Replicas) {
			r.Open(seg, 2, nil) // [2 3]
			if sub, ok := r.Fail(seg, 2, true); ok {
				t.Fatalf("Fail named substitute %d with no peer left", sub)
			}
			if !slices.Equal(r.Set(seg), []int32{3}) {
				t.Fatalf("set %v, want [3]", r.Set(seg))
			}
		}},
		{name: "a sealed or unknown segment is only dropped from", self: 1, fixed: true, run: func(t *testing.T, r *Replicas) {
			r.Open(seg, 3, nil) // [2 3 4]
			if sub, ok := r.Fail(seg, 2, false); ok {
				t.Fatalf("Fail on a sealed segment named substitute %d", sub)
			}
			if !r.Dead(2) || !slices.Equal(r.Set(seg), []int32{3, 4}) {
				t.Fatalf("dead(2) %v, set %v; want true, [3 4]", r.Dead(2), r.Set(seg))
			}
			if _, ok := r.Fail(seg+1, 3, false); ok || !r.Dead(3) || !slices.Equal(r.Set(seg), []int32{3, 4}) {
				t.Fatalf("Fail on an unknown segment: ok %v, dead(3) %v, set %v", ok, r.Dead(3), r.Set(seg))
			}
		}},
		{name: "two timeouts in one fan-out replace the backups that timed out", self: 1, fixed: true, run: func(t *testing.T, r *Replicas) {
			// The fan-out names each backup by the id captured at its send
			// (TestTwoBackupsFailInOneFanOut drives this on a rig).
			set, _ := r.Open(seg, 3, nil)
			sent := slices.Clone(set) // [2 3 4]
			for _, b := range sent[1:] {
				sub, ok := r.Fail(seg, b, true)
				if !ok {
					t.Fatalf("no substitute for %d", b)
				}
				r.Join(seg, sub, true)
			}
			if !slices.Equal(r.Set(seg), []int32{2, 5, 6}) {
				t.Fatalf("set %v, want [2 5 6]", r.Set(seg))
			}
			for _, id := range []int32{2, 5, 6} {
				if r.Dead(id) {
					t.Fatalf("live backup %d marked dead", id)
				}
			}
		}},
		{name: "a rejoined peer is eligible again", self: 1, fixed: true, peers: []int32{1, 2, 3}, run: func(t *testing.T, r *Replicas) {
			r.Open(seg, 2, nil)
			r.Fail(seg, 2, true)
			r.Rejoin(2)
			if set, _ := r.Open(seg+1, 2, nil); r.Dead(2) || !slices.Equal(set, []int32{2, 3}) {
				t.Fatalf("after Rejoin: dead(2) %v, next set %v; want false, [2 3]", r.Dead(2), set)
			}
		}},
		{name: "the will is cut by live bytes, at least one partition per peer, at most 64", self: 1, run: func(t *testing.T, r *Replicas) {
			tablets := []wire.Tablet{{Table: 1, StartHash: 0, EndHash: ^uint64(0)}}
			for _, w := range []struct {
				live int64
				want int
			}{
				{0, 5},        // the floor: the 5 peers other than self
				{399, 5},      // 4 partitions of data, still the floor
				{700, 8},      // 700/100 + 1
				{6300, 64},    // 64 exactly
				{1 << 20, 64}, // the cap
			} {
				if got := r.Will(tablets, w.live, 100); len(got) != w.want {
					t.Errorf("Will at %d live bytes: %d partitions, want %d", w.live, len(got), w.want)
				}
			}
		}},
		{name: "ROADMAP 3(b): a substitute that timed out is neither counted nor marked dead", self: 1, fixed: true, run: func(t *testing.T, r *Replicas) {
			// Today's behaviour, pinned: the substitute may hold the
			// segment, yet the master forgets it. ROADMAP 3(b) adds it or
			// marks it dead (TestTimedOutResendKeepsSubstitute).
			r.Open(seg, 3, nil) // [2 3 4]
			sub, _ := r.Fail(seg, 3, true)
			r.Join(seg, sub, false)
			if slices.Contains(r.Set(seg), sub) || r.Dead(sub) {
				t.Fatalf("set %v, dead(%d) %v: the 3(b) fault changed; update ROADMAP 3", r.Set(seg), sub, r.Dead(sub))
			}
		}},
		{name: "ROADMAP 3(c): a walk of the live set skips the backup after a failed one", self: 1, fixed: true, run: func(t *testing.T, r *Replicas) {
			// Today's behaviour, pinned: the replay chain ranges over Set
			// while its own timeouts rewrite it, so 4 is never reached and
			// the substitute 5 is. ROADMAP 3(c) walks a copy instead
			// (TestReplayChainReachesEveryBackup).
			r.Open(seg, 3, nil) // [2 3 4]
			var walked []int32
			for _, b := range r.Set(seg) {
				walked = append(walked, b)
				if b == 3 {
					sub, _ := r.Fail(seg, b, true)
					r.Join(seg, sub, true)
				}
			}
			if !slices.Equal(walked, []int32{2, 3, 5}) {
				t.Fatalf("walked %v: the 3(c) fault changed; update ROADMAP 3", walked)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ps := c.peers
			if ps == nil {
				ps = peers
			}
			r := NewReplicas(c.self, c.fixed, unreachable(c.down))
			r.Peers = ps
			c.run(t, &r)
		})
	}
}

// unreachable is a network on which the listed peers are down.
type unreachable []int32

func (u unreachable) Up(id int32) bool { return !slices.Contains(u, id) }
