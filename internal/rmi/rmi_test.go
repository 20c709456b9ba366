package rmi

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/frame"
)

type CalcArgs struct{ A, B int }
type CalcReply struct{ Sum int }

type Calc struct{ calls int }

func (c *Calc) Add(args *CalcArgs, reply *CalcReply) error {
	reply.Sum = args.A + args.B
	return nil
}

func (c *Calc) Fail(args *CalcArgs, reply *CalcReply) error {
	return errors.New("deliberate failure")
}

// unexported signature shapes that must NOT register
func (c *Calc) NoReply(args *CalcArgs) error { return nil }

func startRMI(t *testing.T, name string, svc any) (*Server, string) {
	t.Helper()
	s := NewServer()
	if err := s.Register(name, svc); err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr.String()
}

func TestCallRoundtrip(t *testing.T) {
	_, addr := startRMI(t, "Calc", &Calc{})
	c := NewClient(addr, 2)
	defer c.Close()
	var reply CalcReply
	if err := c.Call("Calc.Add", &CalcArgs{A: 2, B: 3}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Sum != 5 {
		t.Fatalf("sum %d", reply.Sum)
	}
}

func TestRemoteError(t *testing.T) {
	_, addr := startRMI(t, "Calc", &Calc{})
	c := NewClient(addr, 2)
	defer c.Close()
	var reply CalcReply
	err := c.Call("Calc.Fail", &CalcArgs{}, &reply)
	if err == nil || !IsFault(err) {
		t.Fatalf("want fault, got %v", err)
	}
	if err.Error() != "deliberate failure" {
		t.Fatalf("msg %q", err.Error())
	}
	// Connection must survive a fault.
	if err := c.Call("Calc.Add", &CalcArgs{A: 1, B: 1}, &reply); err != nil {
		t.Fatalf("call after fault: %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, addr := startRMI(t, "Calc", &Calc{})
	c := NewClient(addr, 1)
	defer c.Close()
	err := c.Call("Calc.Nope", &CalcArgs{}, &CalcReply{})
	if err == nil || !IsFault(err) {
		t.Fatalf("want fault for unknown method, got %v", err)
	}
}

func TestRegisterRejectsBadService(t *testing.T) {
	s := NewServer()
	if err := s.Register("X", struct{}{}); err == nil {
		t.Fatal("empty service must fail to register")
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, addr := startRMI(t, "Calc", &Calc{})
	c := NewClient(addr, 4)
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var reply CalcReply
			if err := c.Call("Calc.Add", &CalcArgs{A: i, B: i}, &reply); err != nil {
				t.Errorf("call: %v", err)
				return
			}
			if reply.Sum != 2*i {
				t.Errorf("sum %d, want %d", reply.Sum, 2*i)
			}
		}()
	}
	wg.Wait()
}

func BenchmarkRMICall(b *testing.B) {
	s := NewServer()
	if err := s.Register("Calc", &Calc{}); err != nil {
		b.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr.String(), 1)
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var reply CalcReply
		if err := c.Call("Calc.Add", &CalcArgs{A: 1, B: 2}, &reply); err != nil {
			b.Fatal(err)
		}
	}
	_ = fmt.Sprint()
}

// Echo's one method never fails, so every fault it answers is a dispatch
// fault.
type Echo struct{}

func (Echo) Add(args *CalcArgs, reply *CalcReply) error {
	reply.Sum = args.A + args.B
	return nil
}

// FuzzRMICall: an arbitrary call payload through the server's connection
// loop never panics. It is answered by exactly one frame: a reply, after
// which the connection goes on serving (a trailing call to a missing method
// is answered too), or a fault, after which the server hangs up (the
// trailing call goes unread).
func FuzzRMICall(f *testing.F) {
	call := func(name string, args any) []byte {
		gs := newGobStream()
		gs.buf.WriteString(name + "\x00")
		if args != nil {
			if err := gs.enc.Encode(args); err != nil {
				f.Fatal(err)
			}
		}
		return gs.buf.Bytes()
	}
	f.Add(call("Echo.Add", &CalcArgs{A: 2, B: 3}))
	f.Add(call("Echo.Add", &CalcReply{Sum: 1}))
	f.Add(call("Echo.Add", nil))
	f.Add(call("Echo.Nope", &CalcArgs{}))
	f.Add([]byte("Echo.Add"))
	s := NewServer()
	if err := s.Register("Echo", Echo{}); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		var in, out bytes.Buffer
		w := bufio.NewWriter(&in)
		frame.Write(w, frameCall, p)
		frame.Write(w, frameCall, []byte("Echo.Missing\x00"))
		w.Flush()
		w.Reset(&out)
		s.serve(nil, bufio.NewReader(&in), w)
		var fb frame.Buf
		typ, _, err := fb.Read(&out)
		if err != nil {
			t.Fatalf("call %q went unanswered: %v", p, err)
		}
		next, _, err := fb.Read(&out)
		switch {
		case typ == frameReply && (err != nil || next != frameFault):
			t.Fatalf("after a reply to %q the connection stopped serving (%v)", p, err)
		case typ == frameFault && err == nil:
			t.Fatalf("after a fault on %q the connection served on", p)
		case typ != frameReply && typ != frameFault:
			t.Fatalf("call %q answered with frame 0x%x", p, typ)
		}
	})
}
