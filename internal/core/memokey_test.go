package core

import (
	"fmt"
	"reflect"
	"testing"

	"ramcloud/internal/client"
	"ramcloud/internal/sim"
	"ramcloud/internal/ycsb"
)

// memoKeyBase builds a scenario exercising every part of the key: flat
// fields, a group, a phase and a full profile. Field values are chosen
// non-zero and pairwise distinct where cheap, so a perturbation cannot
// collide with a neighbouring field's encoding by accident.
func memoKeyBase() Scenario {
	prof := DefaultProfile()
	prof.Client.Backoff = client.BackoffConfig{
		Base: sim.Millisecond, Cap: 40 * sim.Millisecond,
		JitterFrac: 0.25,
	}
	return Scenario{
		Name:              "memokey",
		Profile:           prof,
		Servers:           3,
		Clients:           2,
		RF:                1,
		Workload:          ycsb.WorkloadB(1000, 512),
		RequestsPerClient: 100,
		Rate:              50,
		BatchSize:         2,
		Window:            3,
		Groups: []ClientGroup{{
			Name: "g1", Clients: 4,
			Workload:          ycsb.WorkloadC(500, 256),
			RequestsPerClient: 10,
			Arrival:           ArrivalOpen,
			Rate:              5,
			BatchSize:         6,
			Window:            7,
			Start:             sim.Second,
			Stop:              2 * sim.Second,
			Warmup:            true,
		}},
		Phases: []LoadPhase{{
			Name: "p1", Duration: sim.Second, Shape: ShapeSine,
			From: 0.5, To: 1.5, Period: 3 * sim.Second, Steps: 2,
		}},
		Seed:       7,
		KillAfter:  4 * sim.Second,
		KillTarget: 1,
		Faults: []FaultEvent{{
			At: 5 * sim.Second, Kind: FaultLoss, Target: 2,
			Peers: []int{1, 2}, Loss: 0.01, Dup: 0.002,
			Jitter: 100 * sim.Microsecond, Until: 6 * sim.Second,
		}},
		IdleSeconds: 3,
		Deadline:    sim.Minute,
	}
}

// perturbLeaf walks v's leaf fields in a fixed order and mutates the
// target'th one, returning its dotted path. Slice lengths count as leaves
// too (an appended element must change the key). idx carries the running
// leaf counter across the recursion.
func perturbLeaf(v reflect.Value, idx *int, target int, path string) (string, bool) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if p, ok := perturbLeaf(v.Field(i), idx, target, path+"."+t.Field(i).Name); ok {
				return p, true
			}
		}
		return "", false
	case reflect.Slice:
		if *idx == target {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
			return path + ".len", true
		}
		*idx++
		for i := 0; i < v.Len(); i++ {
			if p, ok := perturbLeaf(v.Index(i), idx, target, fmt.Sprintf("%s[%d]", path, i)); ok {
				return p, true
			}
		}
		return "", false
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if *idx == target {
			v.SetInt(v.Int() + 1)
			return path, true
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if *idx == target {
			v.SetUint(v.Uint() + 1)
			return path, true
		}
	case reflect.Float64, reflect.Float32:
		if *idx == target {
			v.SetFloat(v.Float() + 0.5)
			return path, true
		}
	case reflect.Bool:
		if *idx == target {
			v.SetBool(!v.Bool())
			return path, true
		}
	case reflect.String:
		if *idx == target {
			v.SetString(v.String() + "x")
			return path, true
		}
	default:
		panic("memokey test: unhandled kind " + v.Kind().String() + " at " + path)
	}
	*idx++
	return "", false
}

// TestMemoKeyDistinguishesEveryField perturbs every leaf field of a fully
// populated scenario — including nested Group, Phase and Profile fields —
// and asserts each perturbation changes the memo key. A field added to
// Scenario (or any struct it embeds) without a matching memoKey line
// fails here, because its perturbation leaves the key unchanged.
func TestMemoKeyDistinguishesEveryField(t *testing.T) {
	base := memoKey(memoKeyBase())

	// Count the leaves by probing until the walker runs out.
	leaves := 0
	for {
		s := memoKeyBase()
		idx := 0
		if _, ok := perturbLeaf(reflect.ValueOf(&s).Elem(), &idx, leaves, "Scenario"); !ok {
			break
		}
		leaves++
	}
	if leaves < 80 {
		t.Fatalf("leaf walker found only %d leaves; the scenario struct should have far more", leaves)
	}

	seen := map[string]string{base: "<base>"}
	for target := 0; target < leaves; target++ {
		s := memoKeyBase()
		idx := 0
		path, ok := perturbLeaf(reflect.ValueOf(&s).Elem(), &idx, target, "Scenario")
		if !ok {
			t.Fatalf("leaf %d vanished on the second walk", target)
		}
		key := memoKey(s)
		if prev, dup := seen[key]; dup {
			t.Errorf("perturbing %s produced the same key as %s", path, prev)
			continue
		}
		seen[key] = path
	}
}

func TestMemoKeyStable(t *testing.T) {
	a, b := memoKey(memoKeyBase()), memoKey(memoKeyBase())
	if a != b {
		t.Fatalf("memoKey not deterministic:\n%q\n%q", a, b)
	}
}
