package probe

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSelectBatch times the selector's share of a campaign: on a
// fresh selector over a random metro, three rounds of a 300-measurement
// batch (ε = 0.1, the paper's operating point) each followed by the
// Reports that start a new statistics generation. members=1024 is the
// MaxMetroMembers cap, where the exploit scan and the explore ordering
// are O(members²) per batch.
func BenchmarkSelectBatch(b *testing.B) {
	for _, members := range []int{40, 1024} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			w := randomSelectorWorld(rand.New(rand.NewSource(1)), members+members/4, members, 200)
			n := len(w.members)
			need := make([]int, n)
			for i := range need {
				need[i] = 4
			}
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				b.StopTimer()
				s := NewSelector(w.g, 0, w.members, w.vps, w.hitlist)
				rng := rand.New(rand.NewSource(int64(it)))
				mask := make([]bool, n*n)
				has := func(i, j int) bool { return mask[i*n+j] }
				fill := make([]int, n)
				b.StartTimer()
				for round := 0; round < 3; round++ {
					for k, m := range s.SelectBatch(300, 0.1, fill, need, has, rng) {
						informative := k%3 == 0
						s.Report(m, informative)
						if i, j := s.Index[m.LinkI], s.Index[m.LinkJ]; informative && !mask[i*n+j] {
							mask[i*n+j], mask[j*n+i] = true, true
							fill[i]++
							fill[j]++
						}
					}
				}
			}
		})
	}
}
