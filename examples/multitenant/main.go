// Multi-tenant scalability (the paper's Fig 10 in miniature): many backup
// jobs run concurrently against one shared storage layer, as jobs on one
// engine whose workers each host a stateless L-node. Because L-nodes keep
// no state, widening the engine scales aggregate throughput — the
// architectural property that restic's single shared index cannot match.
//
//	go run ./examples/multitenant
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"slimstore"
)

func main() {
	sys, err := slimstore.OpenMemory(slimstore.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	eng := sys.NewEngine(slimstore.EngineOptions{LNodes: 4})
	defer eng.Close()
	fmt.Println("computing layer: one engine, 4 L-nodes")

	// 12 tenants, each backing up its own dataset concurrently.
	const tenants = 12
	ctx := context.Background()
	datas := make([][]byte, tenants)
	backups := make([]slimstore.Job, tenants)
	for i := range datas {
		datas[i] = make([]byte, 2<<20)
		rand.New(rand.NewSource(int64(i))).Read(datas[i])
		backups[i] = slimstore.Job{Kind: slimstore.JobBackup, FileID: fmt.Sprintf("tenant%02d/data.img", i), Data: datas[i]}
	}

	start := time.Now()
	results := eng.Run(ctx, backups)
	for i, r := range results {
		if r.Err != nil {
			log.Fatalf("tenant %d: %v", i, r.Err)
		}
	}
	fmt.Printf("backed up %d tenants concurrently in %v wall time\n",
		tenants, time.Since(start).Round(time.Millisecond))

	var totalVirtual time.Duration
	var total int64
	for _, r := range results {
		st := r.Backup
		total += st.LogicalBytes
		if st.Elapsed > totalVirtual {
			totalVirtual = st.Elapsed
		}
	}
	fmt.Printf("aggregate: %.1f MB in, makespan %v (virtual) → %.0f MB/s aggregate\n",
		float64(total)/(1<<20), totalVirtual.Round(time.Microsecond),
		float64(total)/(1<<20)/totalVirtual.Seconds())

	// Concurrent restores, verifying integrity per tenant.
	bufs := make([]bytes.Buffer, tenants)
	restores := make([]slimstore.Job, tenants)
	for i := range restores {
		restores[i] = slimstore.Job{Kind: slimstore.JobRestore, FileID: backups[i].FileID, Version: 0, Out: &bufs[i]}
	}
	for i, r := range eng.Run(ctx, restores) {
		if r.Err != nil {
			log.Fatalf("tenant %d restore: %v", i, r.Err)
		}
		if !bytes.Equal(bufs[i].Bytes(), datas[i]) {
			log.Fatalf("tenant %d restore: corrupt", i)
		}
	}
	fmt.Println("all tenants restored byte-identically")
}
