// Livecluster: the paper's Fig. 7 system running for real — a Coordinator
// and two Agents on loopback TCP, moving actual bytes under scheduled,
// token-bucket-enforced rates. Prints each flow's wall-clock finish time;
// the pipeline EchelonFlow finishes staggered even though all three flows
// share one (modelled) link.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"echelonflow"
	"echelonflow/internal/agent"
	"echelonflow/internal/coordinator"
	"echelonflow/internal/sched"
)

func main() {
	const capacity = 400 << 10 // modelled 400 KiB/s per host
	const flowSize = 150 << 10

	// Capacity model of the "cluster": two hosts.
	netModel := echelonflow.NewNetwork()
	if err := netModel.AddHost("w1", "", capacity, capacity); err != nil {
		log.Fatal(err)
	}
	if err := netModel.AddHost("w2", "", capacity, capacity); err != nil {
		log.Fatal(err)
	}

	coord, err := coordinator.New(coordinator.Options{
		Net:       netModel,
		Scheduler: sched.EchelonMADD{Backfill: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var serveWG sync.WaitGroup
	serveWG.Add(1)
	go func() {
		defer serveWG.Done()
		if err := coord.Serve(ctx, ln); err != nil {
			log.Printf("coordinator: %v", err)
		}
	}()
	defer serveWG.Wait()
	defer cancel()
	fmt.Printf("coordinator on %s\n", ln.Addr())

	sender, err := agent.Dial(ctx, agent.Options{Name: "agent-w1", CoordinatorAddr: ln.Addr().String()})
	if err != nil {
		log.Fatal(err)
	}
	defer sender.Close()
	receiver, err := agent.Dial(ctx, agent.Options{
		Name: "agent-w2", CoordinatorAddr: ln.Addr().String(), DataAddr: "127.0.0.1:0",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer receiver.Close()
	fmt.Printf("agents up; data plane on %s\n\n", receiver.DataAddr())

	group, err := echelonflow.NewEchelonFlow("live/pp", echelonflow.Pipeline{T: 0.2},
		&echelonflow.Flow{ID: "mb0", Src: "w1", Dst: "w2", Size: flowSize, Stage: 0},
		&echelonflow.Flow{ID: "mb1", Src: "w1", Dst: "w2", Size: flowSize, Stage: 1},
		&echelonflow.Flow{ID: "mb2", Src: "w1", Dst: "w2", Size: flowSize, Stage: 2},
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := sender.RegisterGroup(group); err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i, f := range group.Flows {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if err := sender.SendFlow(ctx, "live/pp", id, flowSize, receiver.DataAddr()); err != nil {
				log.Printf("send %s: %v", id, err)
				return
			}
			if err := receiver.WaitReceived(ctx, id); err != nil {
				log.Printf("wait %s: %v", id, err)
				return
			}
			fmt.Printf("%-4s finished at %6.3fs (%d bytes received)\n",
				id, time.Since(start).Seconds(), receiver.ReceivedBytes(id))
		}(f.ID)
		if i < len(group.Flows)-1 {
			time.Sleep(200 * time.Millisecond) // upstream "computation"
		}
	}
	wg.Wait()

	ref, tard, err := coord.GroupStatus("live/pp")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncoordinator: %d scheduling decisions; group reference %.3fs, achieved tardiness %.3fs\n",
		coord.Reschedules(), float64(ref), float64(tard))
}
