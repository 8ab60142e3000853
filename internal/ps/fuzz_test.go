package ps

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"prophet/internal/transport"
)

// muxFrameBytes renders f as a tagged frame on the given stream: the 4-byte
// stream id followed by the ordinary frame encoding.
func muxFrameBytes(stream uint32, f *transport.Frame) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, stream)
	if err := transport.WriteFrame(&buf, f); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzServeConn feeds arbitrary byte streams to a live single-stream
// ServeMux connection. The server must terminate (no hang) and must not
// panic, whatever the wire carries: valid pushes, pulls for tensors never
// pushed, corrupted headers, frames for streams that do not exist, or
// mid-frame garbage.
func FuzzServeConn(f *testing.F) {
	push := muxFrameBytes(0, &transport.Frame{Type: transport.Push, Iter: 0, Tensor: 2,
		Payload: transport.EncodeFloats([]float64{1, -2, 3})})
	pull := muxFrameBytes(0, &transport.Frame{Type: transport.PullReq, Iter: 0, Tensor: 2})
	f.Add(append(append([]byte(nil), push...), pull...)) // push then pull: full round
	f.Add(pull)                                          // pull for a tensor never pushed
	f.Add(push[:len(push)-3])                            // truncated push
	{
		bad := append([]byte(nil), push...)
		bad[4] ^= 0xFF // unknown frame type (the type byte follows the stream id)
		f.Add(bad)
	}
	{
		odd := muxFrameBytes(0, &transport.Frame{Type: transport.Push, Iter: 1, Tensor: 0,
			Payload: []byte{1, 2, 3, 4, 5}}) // unaligned payload: not valid float64s
		f.Add(odd)
	}
	f.Add(muxFrameBytes(1, &transport.Frame{Type: transport.PullReq})) // stream the conn does not carry

	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer(1)
		a, b := net.Pipe()
		go io.Copy(io.Discard, a) // drain any responses
		go func() {
			a.Write(data)
			a.Close()
		}()
		done := make(chan struct{})
		go func() {
			srv.ServeMux(b, []int{0})
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("ServeMux did not return after the connection closed")
		}
	})
}
