package cluster

import (
	"slices"
	"testing"

	"stir/internal/twitter"
)

func TestRingDeterministicAndBalanced(t *testing.T) {
	names := []string{"alpha", "beta", "gamma", "delta"}
	r1 := NewRing(256, names)
	r2 := NewRing(256, []string{"delta", "beta", "alpha", "gamma", "beta"}) // order + dups
	counts := map[string]int{}
	for p := 0; p < 256; p++ {
		o1, o2 := r1.Owner(p), r2.Owner(p)
		if o1 != o2 {
			t.Fatalf("partition %d: owner depends on construction order (%s vs %s)", p, o1, o2)
		}
		counts[o1]++
	}
	for _, n := range names {
		if counts[n] < 256/len(names)/3 {
			t.Fatalf("lopsided spread: %v", counts)
		}
	}
}

func TestRingMembershipMovesOnlyAffectedPartitions(t *testing.T) {
	base := NewRing(256, []string{"a", "b", "c", "d"})
	grown := base.With("e")
	moved := 0
	for p := 0; p < 256; p++ {
		if base.Owner(p) != grown.Owner(p) {
			moved++
			// Every moved partition must have moved TO the new worker;
			// rendezvous hashing never reshuffles between survivors.
			if grown.Owner(p) != "e" {
				t.Fatalf("partition %d moved %s -> %s, not to the joiner",
					p, base.Owner(p), grown.Owner(p))
			}
		}
	}
	if moved == 0 || moved > 256/2 {
		t.Fatalf("join moved %d partitions, want roughly 1/5 of 256", moved)
	}
	// Removing the joiner restores the original assignment exactly.
	shrunk := grown.Without("e")
	for p := 0; p < 256; p++ {
		if base.Owner(p) != shrunk.Owner(p) {
			t.Fatalf("partition %d did not return to its pre-join owner", p)
		}
	}
}

func TestRingOwnersReplicasDistinct(t *testing.T) {
	r := NewRing(64, []string{"a", "b", "c"})
	for p := 0; p < 64; p++ {
		owners := r.Owners(p, 2)
		if len(owners) != 2 || owners[0] == owners[1] {
			t.Fatalf("partition %d: owners %v", p, owners)
		}
		// Asking for more replicas than members returns all members.
		if got := len(r.Owners(p, 10)); got != 3 {
			t.Fatalf("partition %d: want all 3 members, got %d", p, got)
		}
	}
	if NewRing(8, nil).Owner(0) != "" {
		t.Fatal("empty ring must have no owner")
	}
}

// TestRingReplicasExceedWorkers pins the over-replication semantics: asking
// for more owners than members yields every member exactly once (never
// duplicates, never an error), so a replicas=3 cluster degraded to one
// worker routes everything to it and PartsOwnedBy covers the whole space
// for each member.
func TestRingReplicasExceedWorkers(t *testing.T) {
	solo := NewRing(32, []string{"only"})
	for p := 0; p < 32; p++ {
		owners := solo.Owners(p, 3)
		if len(owners) != 1 || owners[0] != "only" {
			t.Fatalf("partition %d: owners %v, want [only]", p, owners)
		}
	}
	if got := len(solo.PartsOwnedBy("only", 3)); got != 32 {
		t.Fatalf("sole member owns %d of 32 partitions under replicas=3", got)
	}
	duo := NewRing(32, []string{"a", "b"})
	for p := 0; p < 32; p++ {
		owners := duo.Owners(p, 5)
		if len(owners) != 2 || owners[0] == owners[1] {
			t.Fatalf("partition %d: owners %v, want both members once", p, owners)
		}
	}
	for _, n := range []string{"a", "b"} {
		if got := len(duo.PartsOwnedBy(n, 5)); got != 32 {
			t.Fatalf("%s owns %d of 32 partitions under replicas=5", n, got)
		}
	}
	// Degenerate requests stay safe.
	if got := solo.Owners(0, 0); got != nil {
		t.Fatalf("zero replicas produced owners %v", got)
	}
	if got := NewRing(8, nil).Owners(0, 3); got != nil {
		t.Fatalf("empty ring produced owners %v", got)
	}
}

func TestPartitionOfSpread(t *testing.T) {
	counts := make([]int, 16)
	for id := twitter.UserID(1); id <= 4096; id++ {
		counts[PartitionOf(id, 16)]++
	}
	for p, c := range counts {
		if c < 4096/16/2 || c > 4096/16*2 {
			t.Fatalf("partition %d holds %d of 4096 sequential IDs", p, c)
		}
	}
}

func TestSeqCursorRoundTrip(t *testing.T) {
	for _, n := range []int64{0, 1, 42, 1 << 40} {
		if got := ParseSeq(FormatSeq(n)); got != n {
			t.Fatalf("round-trip %d -> %d", n, got)
		}
	}
	if ParseSeq("") != 0 || ParseSeq("garbage") != 0 || ParseSeq("-5") != 0 {
		t.Fatal("malformed cursors must parse as 0 (replay everything)")
	}
}

// TestRingOwnersMemoMatchesHRW checks the precomputed owner table against
// the direct rendezvous ranking for every partition and replica count, on
// rings of 1–5 workers.
func TestRingOwnersMemoMatchesHRW(t *testing.T) {
	names := []string{"w1", "w2", "w3", "w4", "w5"}
	for size := 1; size <= len(names); size++ {
		r := NewRing(64, names[:size])
		for n := 1; n <= size+1; n++ {
			for p := 0; p < r.Partitions(); p++ {
				got, want := r.Owners(p, n), r.rankOwners(p, min(n, size))
				if !slices.Equal(got, want) {
					t.Fatalf("%d workers, partition %d, n=%d: memo %v, HRW %v", size, p, n, got, want)
				}
			}
		}
	}
}

func TestRingOwnersAllocs(t *testing.T) {
	r := NewRing(64, []string{"a", "b", "c", "d"})
	if n := testing.AllocsPerRun(100, func() {
		for p := 0; p < 64; p++ {
			_ = r.Owners(p, 2)
			_ = r.Owner(p)
		}
	}); n != 0 {
		t.Fatalf("Owners: %v allocs, want 0", n)
	}
}
