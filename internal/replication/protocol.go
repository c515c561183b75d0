// Package replication ships the store's write-ahead log from a leader
// to followers over a long-lived TCP connection, so the repository of
// opinions survives the loss of one node — the paper's service-market
// framing only works if an RSP is more durable than a single disk.
//
// The wire protocol is deliberately close to the on-disk WAL format,
// which since the sharded commit pipeline is striped: every frame
// belongs to one commit stripe and sequence numbers are per-stripe. A
// follower opens the connection and handshakes:
//
//	"OPINREP2"                                  8-byte magic
//	uint32 BE  stripe count n                   4 bytes
//	n × uint64 BE  follower's durable vector    8n bytes
//
// after which the leader streams messages, each tagged by one byte:
//
//	'F' frame:     uint32 BE stripe, uint32 BE payload length, uint32
//	               BE CRC-32 (IEEE, over seq+payload — identical to the
//	               WAL frame CRC), uint64 BE sequence within the stripe,
//	               payload (the record's JSON, as logged)
//	'S' snapshot:  uint64 BE total sequence (sum over stripes), uint32
//	               BE blob length, blob (a storage.Write snapshot,
//	               whose WALSeqs carries the per-stripe vector) — sent when
//	               the follower is behind the leader's compaction base
//	               and frames alone cannot catch it up
//	'H' heartbeat: uint64 BE leader total sequence — keeps the
//	               connection alive and lets an idle follower measure
//	               its lag
//	'R' refusal:   no body — the follower holds records the leader
//	               lacks; the leader closes the connection after it
//
// The follower's side of the stream is a sequence of acks, each a
// uint32 BE stripe plus uint64 BE sequence: "everything at or below
// this sequence in this stripe is fsynced on my disk" — what the
// leader's semi-synchronous commit barrier waits on. A frame is acked
// with one ack for its stripe; snapshots and heartbeats are acked with
// one ack per stripe (the follower's full vector).
package replication

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"opinions/internal/stripe"
)

const (
	handshakeMagic = "OPINREP2"

	msgFrame     = 'F'
	msgSnapshot  = 'S'
	msgHeartbeat = 'H'
	msgRefusal   = 'R'

	// maxFrameBytes mirrors the store's maxRecordBytes: a larger length
	// prefix is corruption, not data.
	maxFrameBytes    = 1 << 26
	maxSnapshotBytes = 1 << 30
)

func frameCRC(seq uint64, payload []byte) uint32 {
	var sb [8]byte
	binary.BigEndian.PutUint64(sb[:], seq)
	c := crc32.Update(0, crc32.IEEETable, sb[:])
	return crc32.Update(c, crc32.IEEETable, payload)
}

// writeHandshake sends the follower's identity: its stripe geometry
// and, per stripe, the highest sequence durable on its disk.
func writeHandshake(w io.Writer, vec []uint64) error {
	buf := make([]byte, len(handshakeMagic)+4+8*len(vec))
	copy(buf, handshakeMagic)
	binary.BigEndian.PutUint32(buf[len(handshakeMagic):], uint32(len(vec)))
	off := len(handshakeMagic) + 4
	for _, seq := range vec {
		binary.BigEndian.PutUint64(buf[off:], seq)
		off += 8
	}
	_, err := w.Write(buf)
	return err
}

func readHandshake(r io.Reader) ([]uint64, error) {
	var hdr [len(handshakeMagic) + 4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("replication: reading handshake: %w", err)
	}
	if string(hdr[:len(handshakeMagic)]) != handshakeMagic {
		return nil, errors.New("replication: bad handshake magic")
	}
	// Frames are addressed by stripe, so a follower striped differently
	// could not apply them.
	n := binary.BigEndian.Uint32(hdr[len(handshakeMagic):])
	if n != stripe.NumShards {
		return nil, fmt.Errorf("replication: handshake stripe count %d, want %d", n, stripe.NumShards)
	}
	buf := make([]byte, 8*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("replication: reading handshake vector: %w", err)
	}
	vec := make([]uint64, n)
	for i := range vec {
		vec[i] = binary.BigEndian.Uint64(buf[8*i:])
	}
	return vec, nil
}

// writeFrameMsg ships one committed record from its commit stripe.
func writeFrameMsg(w io.Writer, stripe uint32, seq uint64, payload []byte) error {
	var hdr [1 + 4 + 4 + 4 + 8]byte
	hdr[0] = msgFrame
	binary.BigEndian.PutUint32(hdr[1:5], stripe)
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[9:13], frameCRC(seq, payload))
	binary.BigEndian.PutUint64(hdr[13:21], seq)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func writeSnapshotMsg(w io.Writer, seq uint64, blob []byte) error {
	var hdr [1 + 8 + 4]byte
	hdr[0] = msgSnapshot
	binary.BigEndian.PutUint64(hdr[1:9], seq)
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(blob)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(blob)
	return err
}

func writeRefusalMsg(w io.Writer) error {
	_, err := w.Write([]byte{msgRefusal})
	return err
}

func writeHeartbeatMsg(w io.Writer, seq uint64) error {
	var buf [1 + 8]byte
	buf[0] = msgHeartbeat
	binary.BigEndian.PutUint64(buf[1:9], seq)
	_, err := w.Write(buf[:])
	return err
}

// writeAck reports one stripe's durable sequence upstream.
func writeAck(w io.Writer, stripe uint32, seq uint64) error {
	var buf [4 + 8]byte
	binary.BigEndian.PutUint32(buf[0:4], stripe)
	binary.BigEndian.PutUint64(buf[4:12], seq)
	_, err := w.Write(buf[:])
	return err
}

func readAck(r io.Reader) (uint32, uint64, error) {
	var buf [4 + 8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, 0, err
	}
	return binary.BigEndian.Uint32(buf[0:4]), binary.BigEndian.Uint64(buf[4:12]), nil
}

// message is one decoded leader→follower message. For frames, stripe
// identifies the commit stripe and seq the position within it; for snapshots and heartbeats seq is the
// leader's total sequence. payload is the frame payload or snapshot
// blob, nil for heartbeats.
type message struct {
	kind    byte
	stripe  uint32
	seq     uint64
	payload []byte
}

// readMessage decodes the next leader→follower message, verifying the
// frame CRC — a mismatch is an error, and the session restarts rather
// than apply a corrupt record.
func readMessage(r *bufio.Reader) (message, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return message{}, err
	}
	switch kind {
	case msgFrame:
		var hdr [4 + 4 + 4 + 8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return message{}, fmt.Errorf("replication: reading frame header: %w", err)
		}
		stripe := binary.BigEndian.Uint32(hdr[0:4])
		n := binary.BigEndian.Uint32(hdr[4:8])
		sum := binary.BigEndian.Uint32(hdr[8:12])
		seq := binary.BigEndian.Uint64(hdr[12:20])
		if n == 0 || n > maxFrameBytes {
			return message{}, fmt.Errorf("replication: frame length %d out of range", n)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return message{}, fmt.Errorf("replication: reading frame payload: %w", err)
		}
		if frameCRC(seq, payload) != sum {
			return message{}, fmt.Errorf("replication: frame %d checksum mismatch", seq)
		}
		return message{kind: kind, stripe: stripe, seq: seq, payload: payload}, nil
	case msgSnapshot:
		var hdr [8 + 4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return message{}, fmt.Errorf("replication: reading snapshot header: %w", err)
		}
		seq := binary.BigEndian.Uint64(hdr[0:8])
		n := binary.BigEndian.Uint32(hdr[8:12])
		if n == 0 || n > maxSnapshotBytes {
			return message{}, fmt.Errorf("replication: snapshot length %d out of range", n)
		}
		blob := make([]byte, n)
		if _, err := io.ReadFull(r, blob); err != nil {
			return message{}, fmt.Errorf("replication: reading snapshot blob: %w", err)
		}
		return message{kind: kind, seq: seq, payload: blob}, nil
	case msgHeartbeat:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return message{}, fmt.Errorf("replication: reading heartbeat: %w", err)
		}
		return message{kind: kind, seq: binary.BigEndian.Uint64(buf[:])}, nil
	case msgRefusal:
		return message{kind: kind}, nil
	default:
		return message{}, fmt.Errorf("replication: unknown message type %q", kind)
	}
}
