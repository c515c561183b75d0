package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opinions/internal/interaction"
	"opinions/internal/simclock"
	"opinions/internal/stripe"
)

func benchUpload(i int) *Record {
	v := interaction.Record{
		Entity:   fmt.Sprintf("ent/%d", i%64),
		Kind:     interaction.VisitKind,
		Start:    simclock.Epoch,
		Duration: 45 * time.Minute,
	}
	r := 4.0
	return &Record{
		Kind:   KindUpload,
		AnonID: fmt.Sprintf("anon-%d", i%1024),
		Entity: v.Entity,
		Visit:  &v,
		Rating: &r,
		Key:    fmt.Sprintf("bench-key-%d", i),
	}
}

// BenchmarkWALAppend measures the full commit path — apply, append,
// group-commit fsync — against a real file. The fsync dominates; the
// NoSync variant isolates everything else.
func BenchmarkWALAppend(b *testing.B) {
	for _, nosync := range []bool{false, true} {
		name := "fsync"
		if nosync {
			name = "nosync"
		}
		b.Run(name, func(b *testing.B) {
			s, err := Open(Options{
				Dir: b.TempDir(), Clock: simclock.NewSim(simclock.Epoch),
				CompactEvery: -1, NoSync: nosync,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Commit(benchUpload(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALAppendParallel measures group commit under contention:
// many committers per fsync is the whole point of the batch design.
func BenchmarkWALAppendParallel(b *testing.B) {
	s, err := Open(Options{
		Dir: b.TempDir(), Clock: simclock.NewSim(simclock.Epoch), CompactEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(ctr.Add(1))
			if err := s.Commit(benchUpload(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// commitParallel drives `committers` goroutines through the full
// durable commit path (apply, append, fsync). Goroutine g's entity
// hashes to stripe g%lanes, so lanes=1 funnels everyone through one
// group-commit syncer while lanes=8 spreads them across independent
// lanes. Records are prebuilt so the timed region is the commit
// pipeline, not fmt.Sprintf.
func commitParallel(b *testing.B, committers, lanes int) {
	ents := make([]string, committers)
	for g := range ents {
		want := g % lanes
		for i := 0; ents[g] == ""; i++ {
			if e := fmt.Sprintf("bench/ent-%d", i); stripe.Index(e) == want {
				ents[g] = e
			}
		}
	}
	s, err := Open(Options{
		Dir:   b.TempDir(),
		Clock: simclock.NewSim(simclock.Epoch), CompactEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	recs := make([][]*Record, committers)
	for g := range recs {
		n := b.N / committers
		if g < b.N%committers {
			n++
		}
		recs[g] = make([]*Record, n)
		for i := range recs[g] {
			v := interaction.Record{
				Entity: ents[g], Kind: interaction.VisitKind,
				Start: simclock.Epoch, Duration: 45 * time.Minute,
			}
			r := 4.0
			recs[g][i] = &Record{
				Kind:   KindUpload,
				AnonID: fmt.Sprintf("anon-%d-%d", g, i%1024),
				Entity: ents[g],
				Visit:  &v,
				Rating: &r,
				Key:    fmt.Sprintf("cp-%d-%d", g, i),
			}
		}
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, rec := range recs[g] {
				if err := s.Commit(rec); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkCommitParallel is the sharded pipeline's headline number:
// durable commit throughput as committers are added. The committers-N
// series shares one stripe, so the win is the group-commit syncer
// amortizing each fsync over every committer the adaptive batch
// window gathers — the scaling a single-stream WAL with one commit
// lock cannot give. lanes-8 pins 8 committers to 8 distinct stripes:
// independent lanes (own lock, sequence space, log, syncer) that
// scale with cores and spindles, though on one core with a journaling
// filesystem the cross-file fsyncs partially serialize, so its number
// sits between committers-1 and committers-8 here.
func BenchmarkCommitParallel(b *testing.B) {
	for _, committers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("committers-%d", committers), func(b *testing.B) {
			commitParallel(b, committers, 1)
		})
	}
	b.Run("lanes-8", func(b *testing.B) {
		commitParallel(b, 8, 8)
	})
}

// BenchmarkCommitMemoryOnly is the commit path with the log removed:
// the cost of serialized apply alone.
func BenchmarkCommitMemoryOnly(b *testing.B) {
	s, err := Open(Options{Clock: simclock.NewSim(simclock.Epoch)})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Commit(benchUpload(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStripedReadUnderWrites measures read throughput on the
// sharded stores while a writer streams commits — the contention the
// striping exists to eliminate.
func BenchmarkStripedReadUnderWrites(b *testing.B) {
	s, err := Open(Options{Clock: simclock.NewSim(simclock.Epoch)})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4096; i++ {
		if err := s.Commit(benchUpload(i)); err != nil {
			b.Fatal(err)
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				_ = s.Commit(benchUpload(1 << 20 * i))
			}
		}
	}()
	hists, ops := s.Histories(), s.Opinions()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			ent := fmt.Sprintf("ent/%d", i%64)
			_ = hists.ByEntity(ent)
			_, _ = ops.Mean(ent)
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}
