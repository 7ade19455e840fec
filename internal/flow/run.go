package flow

import (
	"fmt"
	"time"
)

// Backend is what an orchestrating lowering supplies to Run: the three
// platform primitives the walk cannot perform itself. Everything else
// (pure transforms, input selection, fan-out items and their bound,
// joins, choices) is Run's, so a node means the same on every style.
type Backend interface {
	// Call runs one task-shaped node (a platform task, an entity
	// operation or a sub-workflow) on input and returns its output.
	Call(n *Node, input []byte) ([]byte, error)
	// Fan runs nodes[i] on inputs[i] concurrently and returns their
	// outputs in the same order.
	Fan(nodes []*Node, inputs [][]byte) ([][]byte, error)
	// Sleep pauses the workflow for d.
	Sleep(d time.Duration) error
}

// Run walks a validated graph from its start node, entry being the
// first payload, and returns the last node's output. A pure task runs
// inline and never reaches the backend; a serial map calls its
// iterator once per item, in item order; a concurrent map and a
// parallel each make one Fan call. A fan-out wider than MaxFanOut
// fails before any call, and the first backend error ends the walk.
func Run(g *Graph, st *Stages, entry []byte, b Backend) ([]byte, error) {
	cur := entry
	for name := g.Start; name != ""; {
		n := g.Node(name)
		in := InputFor(n, cur, entry)
		var err error
		switch n.Kind {
		case KindTask, KindSub:
			if !n.Pure {
				cur, err = b.Call(n, in)
				break
			}
			var stage StageFn
			if stage, err = st.Task(n.Stage); err == nil {
				cur, err = stage(nil, in)
			}
		case KindMap:
			cur, err = runMap(n, st, in, cur, b)
		case KindParallel:
			inputs := make([][]byte, len(n.Branches))
			for i, br := range n.Branches {
				inputs[i] = InputFor(br, cur, entry)
			}
			var outs [][]byte
			if outs, err = b.Fan(n.Branches, inputs); err == nil {
				cur, err = JoinOutputs(n, outs, cur)
			}
		case KindChoice:
			if name, err = EvalChoice(n, in); err != nil {
				return nil, err
			}
			continue
		case KindWait:
			err = b.Sleep(time.Duration(n.WaitSeconds * float64(time.Second)))
		default:
			err = fmt.Errorf("flow: %s: unknown node kind %d", n.Name, int(n.Kind))
		}
		if err != nil {
			return nil, err
		}
		name = n.Next
	}
	return cur, nil
}

// runMap resolves a map node's items, runs its iterator over them
// (serially with Call, or concurrently with one Fan) and joins the
// outputs onto cur.
func runMap(n *Node, st *Stages, in, cur []byte, b Backend) ([]byte, error) {
	items, err := Items(n, st, in)
	if err != nil {
		return nil, err
	}
	if len(items) > MaxFanOut {
		return nil, fmt.Errorf("flow: %s: fan-out %d exceeds limit %d", n.Name, len(items), MaxFanOut)
	}
	var outs [][]byte
	if n.Serial {
		outs = make([][]byte, len(items))
		for i, it := range items {
			if outs[i], err = b.Call(n.Iter, it); err != nil {
				return nil, err
			}
		}
	} else {
		nodes := make([]*Node, len(items))
		for i := range nodes {
			nodes[i] = n.Iter
		}
		if outs, err = b.Fan(nodes, items); err != nil {
			return nil, err
		}
	}
	return JoinOutputs(n, outs, cur)
}
