package perf

import "testing"

// Wrappers so the hot-path suite runs under the ordinary bench harness:
//
//	go test ./internal/perf -bench . -run '^$'

func BenchmarkEngineScheduleFire(b *testing.B)     { EngineScheduleFire(b) }
func BenchmarkEngineScheduleFireDeep(b *testing.B) { EngineScheduleFireDeep(b) }
func BenchmarkEngineCancel(b *testing.B)           { EngineCancel(b) }
func BenchmarkResourceAcquire(b *testing.B)        { ResourceAcquire(b) }
func BenchmarkResourceAcquireQueued(b *testing.B)  { ResourceAcquireQueued(b) }
func BenchmarkLRUAccess(b *testing.B)              { LRUAccess(b) }
func BenchmarkLRUAccessEvict(b *testing.B)         { LRUAccessEvict(b) }
func BenchmarkZipfSample10k(b *testing.B)          { ZipfSample10k(b) }
func BenchmarkZipfSample1M(b *testing.B)           { ZipfSample1M(b) }
func BenchmarkHistAdd(b *testing.B)                { HistAdd(b) }
func BenchmarkGossipBroadcastFlat(b *testing.B)    { GossipBroadcastFlat(b) }
func BenchmarkServerRun(b *testing.B)              { ServerRun(b) }
