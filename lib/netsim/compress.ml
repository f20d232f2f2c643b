(* LZ77 byte compressor used by the communication manager.

   The paper's runtime "compresses the communicated data before
   sending it" and, because compression costs much more than
   decompression, applies it only to server-to-mobile traffic
   (Section 4).  This is a real compressor — dirty pages of the
   simulated memory are actual byte buffers, and zero-heavy or
   repetitive pages compress exactly as they would in the paper's
   system.

   Format: a stream of tokens.
     0x00 <varint len> <len bytes>      literal run
     0x01 <varint dist> <varint len>    match (dist >= 1, len >= 4)
   Varints are LEB128. *)

let min_match = 4
let max_match = 262
let window_size = 1 lsl 16
let hash_bits = 15
let max_chain = 16

(* No inner helper here: a [let b k = ...] closure would be allocated
   on every call, and this runs for every input position. *)
let hash4 data i =
  let v =
    Char.code (Bytes.unsafe_get data i)
    lor (Char.code (Bytes.unsafe_get data (i + 1)) lsl 8)
    lor (Char.code (Bytes.unsafe_get data (i + 2)) lsl 16)
    lor (Char.code (Bytes.unsafe_get data (i + 3)) lsl 24)
  in
  (v * 2654435761) lsr (32 - hash_bits) land ((1 lsl hash_bits) - 1)

let put_varint buf v =
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.chr (!v land 0x7f lor 0x80));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let get_varint data pos =
  let v = ref 0 and shift = ref 0 and p = ref pos in
  let continue = ref true in
  while !continue do
    let b = Char.code (Bytes.get data !p) in
    incr p;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  (!v, !p)

let match_length data pos cand limit =
  let n = ref 0 in
  while
    !n < limit
    && Bytes.unsafe_get data (cand + !n) = Bytes.unsafe_get data (pos + !n)
  do
    incr n
  done;
  !n

module Selfprof = No_selfprof.Selfprof

(* Dictionary scratch, reused across calls (the simulator is
   single-threaded).  Zeroing 32k+64k words of hash state per page
   dominated the compress zone's cost, so instead of clearing, [head]
   entries are valid only when their epoch stamp matches the current
   call; a stale slot reads as "no chain".  [prev] needs no stamping:
   its entries are only reachable through a head written this call,
   and every chain link walked was therefore also written this call.
   The emitted stream is byte-identical to a fresh-scratch run. *)
let scr_head = Array.make (1 lsl hash_bits) (-1)
let scr_head_epoch = Array.make (1 lsl hash_bits) (-1)
let scr_epoch = ref (-1)
let scr_prev = ref (Array.make 1 (-1))
let scr_out = Buffer.create 65536

let compress (data : Bytes.t) : Bytes.t =
  Selfprof.enter Compress;
  let len = Bytes.length data in
  incr scr_epoch;
  let epoch = !scr_epoch in
  let out = scr_out in
  Buffer.clear out;
  let head = scr_head and head_epoch = scr_head_epoch in
  if Array.length !scr_prev < max len 1 then
    scr_prev := Array.make (max len 1) (-1);
  let prev = !scr_prev in
  let lit_start = ref 0 in
  let flush_literals upto =
    if upto > !lit_start then begin
      Buffer.add_char out '\000';
      put_varint out (upto - !lit_start);
      Buffer.add_subbytes out data !lit_start (upto - !lit_start)
    end
  in
  let insert i =
    if i + min_match <= len then begin
      let h = hash4 data i in
      prev.(i) <- (if head_epoch.(h) = epoch then head.(h) else -1);
      head.(h) <- i;
      head_epoch.(h) <- epoch
    end
  in
  let i = ref 0 in
  while !i < len do
    let best_len = ref 0 and best_dist = ref 0 in
    if !i + min_match <= len then begin
      let limit = min max_match (len - !i) in
      let h0 = hash4 data !i in
      let cand = ref (if head_epoch.(h0) = epoch then head.(h0) else -1) in
      let chain = ref 0 in
      (* Positions are inserted in increasing order, so a chain runs
         strictly backwards: the first candidate beyond the window ends
         the walk, and so does a match of the full [limit].  A candidate
         whose byte at [best_len] differs cannot beat the best match.
         None of the three changes which match wins. *)
      while
        !cand >= 0 && !chain < max_chain
        && !i - !cand <= window_size
        && !best_len < limit
      do
        if
          Bytes.unsafe_get data (!cand + !best_len)
          = Bytes.unsafe_get data (!i + !best_len)
        then begin
          let l = match_length data !i !cand limit in
          if l > !best_len then begin
            best_len := l;
            best_dist := !i - !cand
          end
        end;
        cand := prev.(!cand);
        incr chain
      done
    end;
    if !best_len >= min_match then begin
      flush_literals !i;
      Buffer.add_char out '\001';
      put_varint out !best_dist;
      put_varint out !best_len;
      for k = !i to !i + !best_len - 1 do
        insert k
      done;
      i := !i + !best_len;
      lit_start := !i
    end
    else begin
      insert !i;
      incr i
    end
  done;
  flush_literals len;
  let res = Buffer.to_bytes out in
  Selfprof.leave Compress;
  res

exception Corrupt of string

let decompress_unprofiled (data : Bytes.t) : Bytes.t =
  let len = Bytes.length data in
  let out = Buffer.create (len * 2) in
  let pos = ref 0 in
  while !pos < len do
    let tag = Bytes.get data !pos in
    incr pos;
    match tag with
    | '\000' ->
      let n, p = get_varint data !pos in
      pos := p;
      if !pos + n > len then raise (Corrupt "literal run past end");
      Buffer.add_subbytes out data !pos n;
      pos := !pos + n
    | '\001' ->
      let dist, p = get_varint data !pos in
      let mlen, p = get_varint data p in
      pos := p;
      let base = Buffer.length out - dist in
      if dist = 0 || base < 0 then raise (Corrupt "bad match distance");
      (* Overlapping copies are legal (dist < len). *)
      for k = 0 to mlen - 1 do
        Buffer.add_char out (Buffer.nth out (base + k))
      done
    | c -> raise (Corrupt (Printf.sprintf "bad token %C" c))
  done;
  Buffer.to_bytes out

(* [Corrupt] may unwind out of the loop; leave the zone on both edges
   so a poisoned payload doesn't keep absorbing self-time. *)
let decompress (data : Bytes.t) : Bytes.t =
  Selfprof.enter Decompress;
  match decompress_unprofiled data with
  | res ->
    Selfprof.leave Decompress;
    res
  | exception e ->
    Selfprof.leave Decompress;
    raise e

(* Ratio achieved on [data]; 1.0 means incompressible. *)
let ratio data =
  let n = Bytes.length data in
  if n = 0 then 1.0
  else float_of_int (Bytes.length (compress data)) /. float_of_int n
