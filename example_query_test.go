package declpat_test

import (
	"fmt"

	"declpat"
)

// ExampleNewQueryService runs a resident query service over a small path
// graph and answers one BFS query: build the universe, graph, and engine as
// usual, construct the service before Universe.Run, drive the universe with
// Serve, and submit queries from any goroutine.
func ExampleNewQueryService() {
	const n = 8
	edges := declpat.PathGraph(n, declpat.WeightSpec{Min: 1, Max: 1}, 1)
	u := declpat.New(2, declpat.WithThreads(1))
	dist := declpat.NewBlockDist(n, 2)
	g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{})
	eng := declpat.NewEngine(u, g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())
	svc := declpat.NewQueryService(eng)

	served := make(chan error, 1)
	go func() { served <- svc.Serve() }()

	t, err := svc.Submit(declpat.QueryRequest{Algo: declpat.QueryBFS, Source: 0})
	if err != nil {
		fmt.Println("submit:", err)
		return
	}
	res, err := t.Wait()
	if err != nil {
		fmt.Println("wait:", err)
		return
	}
	fmt.Println("hops 0→7:", res.Values[7])

	svc.Stop()
	<-served
	// Output:
	// hops 0→7: 7
}
