package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"xkernel"
)

// TestRunEchoes traces one call per stack and size and checks the
// report names the echoed reply length and the reconstructed path.
func TestRunEchoes(t *testing.T) {
	for _, stack := range []string{"layered", "mono", "bypass"} {
		for _, size := range []int{0, 8192} {
			t.Run(fmt.Sprintf("%s/%d", stack, size), func(t *testing.T) {
				var human, records bytes.Buffer
				if err := run(&human, &records, stack, size, "", false); err != nil {
					t.Fatal(err)
				}
				out := human.String()
				if want := fmt.Sprintf("--- reply: %d bytes ---", size); !strings.Contains(out, want) {
					t.Errorf("report lacks %q:\n%s", want, out)
				}
				if !strings.Contains(out, "--- reconstructed path ---") {
					t.Errorf("report lacks the reconstructed path:\n%s", out)
				}
			})
		}
	}
}

// TestLayeredNullPath checks the JSONL path of the default layered
// null call: client down, server up, server down, client up — sixteen
// crossings, each adjacent pair one message leg sharing a nonzero
// msgid, in strictly increasing seq order.
func TestLayeredNullPath(t *testing.T) {
	var human, records bytes.Buffer
	if err := run(&human, &records, "layered", 0, "", false); err != nil {
		t.Fatal(err)
	}
	var path []xkernel.TraceEvent
	sc := bufio.NewScanner(&records)
	for sc.Scan() {
		var ev xkernel.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL record %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case "push", "pop", "call", "return":
			if ev.Layer != "app" {
				path = append(path, ev)
			}
		}
	}
	want := []string{
		"client/channel call", "client/fragment push", "client/vip push", "client/eth push",
		"server/eth pop", "server/vip pop", "server/fragment pop", "server/channel pop",
		"server/channel push", "server/fragment push", "server/vip push", "server/eth push",
		"client/eth pop", "client/vip pop", "client/fragment pop", "client/channel return",
	}
	if len(path) != len(want) {
		t.Fatalf("path has %d crossings, want %d: %+v", len(path), len(want), path)
	}
	for i, ev := range path {
		if got := ev.Layer + " " + ev.Event; got != want[i] {
			t.Errorf("step %d = %q, want %q", i, got, want[i])
		}
		if i > 0 && ev.Seq <= path[i-1].Seq {
			t.Errorf("step %d seq %d does not follow %d", i, ev.Seq, path[i-1].Seq)
		}
	}
	for i := 0; i < len(path); i += 2 {
		a, b := path[i], path[i+1]
		if a.MsgID == 0 || a.MsgID != b.MsgID {
			t.Errorf("steps %d,%d msgids %d,%d: want one shared nonzero msgid", i, i+1, a.MsgID, b.MsgID)
		}
	}
}
