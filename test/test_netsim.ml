(* Network simulator tests: link arithmetic, the LZ77 compressor
   (QCheck roundtrip), and channel batching/compression accounting. *)

module Link = No_netsim.Link
module Compress = No_netsim.Compress
module Channel = No_netsim.Channel

let test_link_math () =
  let slow = Link.slow_wifi and fast = Link.fast_wifi in
  Alcotest.(check bool) "fast beats slow" true
    (Link.effective_bps fast > Link.effective_bps slow);
  let t1 = Link.transfer_time slow ~bytes:0 in
  Alcotest.(check bool) "latency floor" true (t1 > 0.0);
  let t2 = Link.transfer_time slow ~bytes:100_000 in
  Alcotest.(check bool) "bytes cost time" true (t2 > t1);
  let rt = Link.round_trip_time slow ~req:100 ~resp:100 in
  Alcotest.(check bool) "round trip = two transfers" true
    (abs_float (rt -. (2.0 *. Link.transfer_time slow ~bytes:100)) < 1e-9)

let test_compress_runs () =
  let data = Bytes.make 4096 'a' in
  let packed = Compress.compress data in
  Alcotest.(check bool)
    (Printf.sprintf "runs compress well (%d -> %d)" 4096
       (Bytes.length packed))
    true
    (Bytes.length packed < 100);
  Alcotest.(check bytes) "roundtrip" data (Compress.decompress packed)

let test_compress_incompressible () =
  let data =
    Bytes.init 4096 (fun i ->
        Char.chr ((i * 197 + (i lsr 3 * 89) + (i * i mod 251)) land 0xff))
  in
  let packed = Compress.compress data in
  Alcotest.(check bytes) "roundtrip" data (Compress.decompress packed);
  Alcotest.(check bool) "no catastrophic expansion" true
    (Bytes.length packed < Bytes.length data * 2)

let prop_compress_roundtrip =
  QCheck.Test.make ~name:"compress/decompress roundtrip" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 2000))
    (fun s ->
      let data = Bytes.of_string s in
      Bytes.equal data (Compress.decompress (Compress.compress data)))

(* Overlapping matches (dist < len) are the classic decoder pitfall. *)
let test_compress_overlap () =
  let data = Bytes.of_string ("ab" ^ String.concat "" (List.init 100 (fun _ -> "ab"))) in
  Alcotest.(check bytes) "overlapping copy" data
    (Compress.decompress (Compress.compress data))

let test_corrupt_rejected () =
  match Compress.decompress (Bytes.of_string "\x07garbage") with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception Compress.Corrupt _ -> ()

let test_channel_batching () =
  let ch = Channel.create Link.fast_wifi Channel.To_server in
  Channel.send ch (Bytes.create 100);
  Channel.send ch (Bytes.create 200);
  Alcotest.(check int) "pending" 300 (Channel.pending_bytes ch);
  let t = Channel.flush ch in
  Alcotest.(check bool) "flush costs time" true (t > 0.0);
  let stats = Channel.stats ch in
  Alcotest.(check int) "two messages" 2 stats.Channel.messages;
  Alcotest.(check int) "one physical flush" 1 stats.Channel.flushes;
  Alcotest.(check int) "raw bytes" 300 stats.Channel.raw_bytes;
  (* batching amortizes latency: two separate flushes cost more *)
  let ch2 = Channel.create Link.fast_wifi Channel.To_server in
  let t2 =
    Channel.send_now ch2 (Bytes.create 100)
    +. Channel.send_now ch2 (Bytes.create 200)
  in
  Alcotest.(check bool) "batching wins" true (t < t2)

let test_channel_compression () =
  let compressible = Bytes.make 8192 'x' in
  let ch = Channel.create ~compress:true Link.slow_wifi Channel.To_mobile in
  Channel.send ch compressible;
  ignore (Channel.flush ch);
  let stats = Channel.stats ch in
  Alcotest.(check bool) "wire < raw" true
    (stats.Channel.wire_bytes < stats.Channel.raw_bytes);
  Alcotest.(check bool) "codec time charged" true (stats.Channel.codec_time > 0.0);
  Alcotest.(check bool) "ratio < 0.1" true (Channel.compression_ratio ch < 0.1)

let test_empty_flush_noop () =
  (* Flushing an empty buffer is a strict no-op: no time, no stats,
     no trace event. *)
  let ring = No_trace.Trace.Ring.create ~capacity:16 () in
  let ch =
    Channel.create ~sink:(No_trace.Trace.Ring.sink ring) Link.fast_wifi
      Channel.To_server
  in
  Alcotest.(check (float 0.0)) "no time" 0.0 (Channel.flush ch);
  let stats = Channel.stats ch in
  Alcotest.(check int) "no physical flush" 0 stats.Channel.flushes;
  Alcotest.(check int) "no raw bytes" 0 stats.Channel.raw_bytes;
  Alcotest.(check int) "no event" 0 (No_trace.Trace.Ring.length ring);
  (* ... and a real flush afterwards behaves normally. *)
  Channel.send ch (Bytes.create 64);
  ignore (Channel.flush ch);
  Alcotest.(check int) "one flush after send" 1 (Channel.stats ch).Channel.flushes;
  Alcotest.(check int) "one event after send" 1 (No_trace.Trace.Ring.length ring)

let test_wire_never_exceeds_raw_event () =
  (* Compression can only shrink what goes on the wire; both the
     stats and the emitted Flush event must agree. *)
  let ring = No_trace.Trace.Ring.create ~capacity:16 () in
  let payloads =
    [ Bytes.make 8192 'x';  (* highly compressible *)
      Bytes.init 4096 (fun i -> Char.chr ((i * 131 + (i * i mod 253)) land 0xff));
      Bytes.create 1 ]      (* tiny: headers could expand it *)
  in
  List.iter
    (fun payload ->
      let ch =
        Channel.create ~compress:true ~sink:(No_trace.Trace.Ring.sink ring)
          Link.slow_wifi Channel.To_mobile
      in
      Channel.send ch payload;
      ignore (Channel.flush ch);
      let stats = Channel.stats ch in
      Alcotest.(check bool) "stats: wire <= raw" true
        (stats.Channel.wire_bytes <= stats.Channel.raw_bytes))
    payloads;
  let events = No_trace.Trace.Ring.events ring in
  Alcotest.(check int) "one event per flush" (List.length payloads)
    (List.length events);
  List.iter
    (fun (_, ev) ->
      match ev with
      | No_trace.Trace.Flush { raw_bytes; wire_bytes; _ } ->
        Alcotest.(check bool) "event: wire <= raw" true
          (wire_bytes <= raw_bytes)
      | _ -> Alcotest.fail "expected Flush event")
    events

let test_channel_compression_fallback () =
  (* Incompressible payload: the channel sends raw rather than
     expanding. *)
  let noise =
    Bytes.init 4096 (fun i -> Char.chr ((i * 131 + (i * i mod 253)) land 0xff))
  in
  let ch = Channel.create ~compress:true Link.slow_wifi Channel.To_mobile in
  Channel.send ch noise;
  ignore (Channel.flush ch);
  let stats = Channel.stats ch in
  Alcotest.(check bool) "no expansion on wire" true
    (stats.Channel.wire_bytes <= stats.Channel.raw_bytes)

(* Golden output: the compressor's exact byte stream over a fixed
   corpus, digested.  A search shortcut must prune only candidates
   that cannot win, leaving every emitted token unchanged. *)
let golden_compress_digest = "7d46080a63df760ef79f8bdfa5624d36"

let compress_corpus () =
  let seed = ref 12345 in
  let lcg_byte _ =
    seed := ((!seed * 1103515245) + 12345) land 0x7fffffff;
    Char.chr ((!seed lsr 16) land 0xff)
  in
  let f64_ramp n =
    let b = Bytes.make n '\000' in
    for k = 0 to (n / 8) - 1 do
      Bytes.set_int64_le b (8 * k)
        (Int64.bits_of_float (1.0 +. (float k *. 1e-6)))
    done;
    b
  in
  List.concat_map
    (fun n ->
      let zeros = Bytes.make n '\000' in
      let ramp = Bytes.init n (fun i -> Char.chr (i land 0xff)) in
      let noise = Bytes.init n lcg_byte in
      [ zeros; ramp; noise; f64_ramp n ])
    [ 0; 1; 4; 63; 4096; 65553; 300_000 ]

let test_golden_compress () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun data -> Buffer.add_bytes buf (Compress.compress data))
    (compress_corpus ());
  Alcotest.(check string) "compressor output digest" golden_compress_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let tests =
  [
    Alcotest.test_case "link math" `Quick test_link_math;
    Alcotest.test_case "compress runs" `Quick test_compress_runs;
    Alcotest.test_case "compress incompressible" `Quick
      test_compress_incompressible;
    QCheck_alcotest.to_alcotest prop_compress_roundtrip;
    Alcotest.test_case "compress overlap" `Quick test_compress_overlap;
    Alcotest.test_case "corrupt rejected" `Quick test_corrupt_rejected;
    Alcotest.test_case "channel batching" `Quick test_channel_batching;
    Alcotest.test_case "channel compression" `Quick test_channel_compression;
    Alcotest.test_case "compression fallback" `Quick
      test_channel_compression_fallback;
    Alcotest.test_case "empty flush is a no-op" `Quick test_empty_flush_noop;
    Alcotest.test_case "wire bytes never exceed raw" `Quick
      test_wire_never_exceeds_raw_event;
    Alcotest.test_case "golden compressor digest" `Quick test_golden_compress;
  ]
