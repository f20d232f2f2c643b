(* Memory subsystem tests: device memories, page faulting, dirty
   tracking, the UVA allocator (with QCheck properties), stack
   regions, and endianness-aware scalar encoding. *)

module Arch = No_arch.Arch
module Memory = No_mem.Memory
module Region = No_mem.Region
module Scalar = No_mem.Scalar
module Uva = No_mem.Uva
module Stack_alloc = No_mem.Stack_alloc

let heap_addr offset = Region.heap_base + offset

let test_home_memory () =
  let m = Memory.create Memory.Home in
  Alcotest.(check int) "zero before write" 0 (Memory.read_byte m (heap_addr 5));
  Memory.write_byte m (heap_addr 5) 0xAB;
  Alcotest.(check int) "read back" 0xAB (Memory.read_byte m (heap_addr 5));
  Alcotest.(check int) "masked" 0x01 (
    Memory.write_byte m (heap_addr 6) 0x101;
    Memory.read_byte m (heap_addr 6))

let test_remote_faults () =
  let home = Memory.create Memory.Home in
  Memory.write_byte home (heap_addr 100) 42;
  let remote = Memory.create Memory.Remote in
  (* no handler: fault escapes *)
  (match Memory.read_byte remote (heap_addr 100) with
  | _ -> Alcotest.fail "expected fault"
  | exception Memory.Page_fault page ->
    Alcotest.(check int) "faulting page" (Region.page_of_addr (heap_addr 100))
      page);
  (* copy-on-demand handler *)
  remote.Memory.on_fault <-
    Some
      (fun mem page ->
        Memory.install_page mem page (Memory.page_copy home page));
  let before = remote.Memory.fault_count in
  Alcotest.(check int) "served by handler" 42
    (Memory.read_byte remote (heap_addr 100));
  Alcotest.(check int) "one fault" (before + 1) remote.Memory.fault_count;
  (* resident now: no second fault *)
  ignore (Memory.read_byte remote (heap_addr 101));
  Alcotest.(check int) "still one fault" (before + 1) remote.Memory.fault_count

let test_dirty_tracking () =
  let m = Memory.create Memory.Home in
  m.Memory.track_dirty <- true;
  Memory.write_byte m (heap_addr 0) 1;
  Memory.write_byte m (heap_addr 1) 2;
  Memory.write_byte m (heap_addr Region.page_size) 3;
  Alcotest.(check int) "two dirty pages" 2
    (List.length (Memory.dirty_pages m));
  ignore (Memory.read_byte m (heap_addr (2 * Region.page_size)));
  Alcotest.(check int) "reads do not dirty" 2
    (List.length (Memory.dirty_pages m));
  Memory.clear_dirty m;
  Alcotest.(check int) "cleared" 0 (List.length (Memory.dirty_pages m))

let test_block_ops () =
  let m = Memory.create Memory.Home in
  let data = Bytes.of_string "native offloader" in
  Memory.write_block m (heap_addr 10) data;
  Alcotest.(check string) "roundtrip" "native offloader"
    (Bytes.to_string (Memory.read_block m (heap_addr 10) (Bytes.length data)))

let test_region_map () =
  Alcotest.(check string) "null guard" "null-guard"
    (Region.region_to_string (Region.region_of_addr 0));
  Alcotest.(check string) "heap" "heap"
    (Region.region_to_string (Region.region_of_addr Region.heap_base));
  Alcotest.(check string) "mobile stack" "mobile-stack"
    (Region.region_to_string (Region.region_of_addr Region.mobile_stack_base));
  Alcotest.(check string) "server stack" "server-stack"
    (Region.region_to_string (Region.region_of_addr Region.server_stack_base));
  Alcotest.(check bool) "stacks disjoint" true
    (Region.mobile_stack_limit <= Region.server_stack_base)

let test_uva_basics () =
  let u = Uva.create () in
  let a = Uva.alloc u 100 in
  let b = Uva.alloc u 200 in
  Alcotest.(check bool) "disjoint" true (b >= a + 100);
  Alcotest.(check bool) "aligned" true (a mod 16 = 0 && b mod 16 = 0);
  Alcotest.(check int) "live bytes" (112 + 208) (Uva.live_bytes u);
  Uva.dealloc u a;
  Alcotest.(check int) "after free" 208 (Uva.live_bytes u);
  (* freed space is reused *)
  let c = Uva.alloc u 50 in
  Alcotest.(check int) "first fit reuse" a c;
  (match Uva.dealloc u (a + 16) with
  | () -> Alcotest.fail "expected invalid free"
  | exception Uva.Invalid_free _ -> ())

let test_uva_coalescing () =
  let u = Uva.create () in
  let blocks = List.init 8 (fun _ -> Uva.alloc u 64) in
  List.iter (Uva.dealloc u) blocks;
  (* all 8 blocks coalesce into one range, so a large allocation fits
     without growing the break *)
  let hwm = Uva.high_water_mark u in
  let big = Uva.alloc u (8 * 64) in
  Alcotest.(check int) "reused coalesced space" (List.hd blocks) big;
  Alcotest.(check int) "no growth" hwm (Uva.high_water_mark u)

(* QCheck: after any sequence of allocs and frees, live allocations
   never overlap and live_bytes is consistent. *)
let prop_uva_no_overlap =
  QCheck.Test.make ~name:"uva allocations never overlap" ~count:100
    QCheck.(list (int_range 1 500))
    (fun sizes ->
      let u = Uva.create () in
      let live = ref [] in
      List.iteri
        (fun i size ->
          if i mod 3 = 2 && !live <> [] then begin
            match !live with
            | (addr, _) :: rest ->
              Uva.dealloc u addr;
              live := rest
            | [] -> ()
          end
          else begin
            let addr = Uva.alloc u size in
            live := (addr, size) :: !live
          end)
        sizes;
      let sorted =
        List.sort (fun (a, _) (b, _) -> compare a b) !live
      in
      let rec disjoint = function
        | (a, sa) :: ((b, _) :: _ as rest) ->
          a + sa <= b && disjoint rest
        | _ -> true
      in
      disjoint sorted)

(* QCheck: the touch contract.  A random sequence of scalar and block
   accesses, many straddling page boundaries, runs on two memories —
   one with a touch callback, one without.  Each access reports
   exactly the pages its bytes lie in (once each, unless it is a
   page-crossing scalar, which keeps the byte loop), and both memories
   load the same values and end with the same pages, bytes and dirty
   set. *)
type touch_op =
  | Load of int * int                   (* addr, width *)
  | Store of int * int * int64
  | Base of int * int                   (* load_base admission *)
  | Read of int * int                   (* addr, length *)
  | Write of int * string

let gen_touch_op =
  let open QCheck.Gen in
  let addr =
    let* page = int_range 0 3 in
    let* off =
      oneof [ int_bound (Region.page_size - 1);
              map (fun k -> Region.page_size - k) (int_range 1 9) ]
    in
    return (heap_addr ((page * Region.page_size) + off))
  in
  let width = oneofl [ 1; 2; 4; 8 ] in
  oneof
    [ map2 (fun a w -> Load (a, w)) addr width;
      map3 (fun a w v -> Store (a, w, v)) addr width ui64;
      map2 (fun a w -> Base (a, w)) addr width;
      map2 (fun a n -> Read (a, n)) addr (int_range 0 9000);
      map2 (fun a s -> Write (a, s)) addr
        (string_size ~gen:printable (int_range 0 9000)) ]

let show_touch_op = function
  | Load (a, w) -> Printf.sprintf "load %#x/%d" a w
  | Store (a, w, v) -> Printf.sprintf "store %#x/%d %Ld" a w v
  | Base (a, w) -> Printf.sprintf "base %#x/%d" a w
  | Read (a, n) -> Printf.sprintf "read %#x+%d" a n
  | Write (a, s) -> Printf.sprintf "write %#x+%d" a (String.length s)

let prop_touch_once_per_page =
  QCheck.Test.make ~name:"touch callback once per page per access"
    ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_touch_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_touch_op))
    (fun ops ->
      let touched = Memory.create Memory.Home in
      let plain = Memory.create Memory.Home in
      touched.Memory.track_dirty <- true;
      plain.Memory.track_dirty <- true;
      let seen = ref [] in
      Memory.set_touch_callback touched (Some (fun p -> seen := p :: !seen));
      let access op =
        seen := [];
        let addr, len, per_byte =
          match op with
          | Load (a, w) | Base (a, w) ->
            (a, w, Region.offset_in_page a + w > Region.page_size)
          | Store (a, w, v) ->
            Memory.store_le touched a w v;
            Memory.store_le plain a w v;
            (a, w, Region.offset_in_page a + w > Region.page_size)
          | Read (a, n) -> (a, n, false)
          | Write (a, s) ->
            Memory.write_block touched a (Bytes.of_string s);
            Memory.write_block plain a (Bytes.of_string s);
            (a, String.length s, false)
        in
        let same_values =
          match op with
          | Load (a, w) ->
            Int64.equal (Memory.load_le touched a w) (Memory.load_le plain a w)
          | Base (a, w) ->
            (* -1 sends the caller to [load_le], as the interpreter does *)
            let base = Memory.load_base touched a w in
            if base < 0 then
              Int64.equal (Memory.load_le touched a w)
                (Memory.load_le plain a w)
            else
              Bytes.equal
                (Bytes.sub touched.Memory.slab base w)
                (Memory.read_block plain a w)
          | Read (a, n) ->
            Bytes.equal (Memory.read_block touched a n)
              (Memory.read_block plain a n)
          | Store _ | Write _ -> true
        in
        let expected =
          List.sort_uniq compare
            (List.init len (fun i -> Region.page_of_addr (addr + i)))
        in
        same_values
        && List.sort_uniq compare !seen = expected
        && (per_byte || List.length !seen = List.length expected)
      in
      let all_agree = List.for_all access ops in
      let pages = Memory.resident_pages touched in
      all_agree
      && pages = Memory.resident_pages plain
      && Memory.dirty_pages touched = Memory.dirty_pages plain
      && List.for_all
           (fun p ->
             Bytes.equal (Memory.page_copy touched p)
               (Memory.page_copy plain p))
           pages)

(* The TLB against a reference model.  The page pool spans 10 x 64
   pages, so pages with the same [page land 63] keep evicting each
   other; the model is a plain page -> bytes table with no cache. *)
type tlb_op =
  | T_load of int * int
  | T_store of int * int * int64
  | T_load_base of int * int
  | T_store_base of int * int * int64
  | T_read of int * int
  | T_write of int * string
  | T_clear_dirty
  | T_drop of int
  | T_track of bool
  | T_snapshot
  | T_restore

let pool_page k j = Region.page_of_addr Region.heap_base + (64 * k) + j

let gen_tlb_op =
  let open QCheck.Gen in
  (* Half the accesses hit 8 hot pages, so pages are revisited while
     their entries are still cached. *)
  let page =
    frequency
      [ (1, map (pool_page 0) (int_bound 7));
        (1, map2 pool_page (int_bound 9) (int_bound 7)) ]
  in
  let addr =
    let* p = page in
    let* off =
      oneof [ int_bound (Region.page_size - 1);
              map (fun k -> Region.page_size - k) (int_range 1 9) ]
    in
    return (Region.addr_of_page p + off)
  in
  let width = oneofl [ 1; 2; 4; 8 ] in
  frequency
    [ (4, map2 (fun a w -> T_load (a, w)) addr width);
      (4, map3 (fun a w v -> T_store (a, w, v)) addr width ui64);
      (3, map2 (fun a w -> T_load_base (a, w)) addr width);
      (3, map3 (fun a w v -> T_store_base (a, w, v)) addr width ui64);
      (2, map2 (fun a n -> T_read (a, n)) addr (int_range 0 9000));
      (2, map2 (fun a s -> T_write (a, s)) addr
            (string_size ~gen:printable (int_range 0 9000)));
      (1, return T_clear_dirty);
      (2, map (fun p -> T_drop p) page);
      (1, map (fun b -> T_track b) bool);
      (1, return T_snapshot);
      (1, return T_restore) ]

let show_tlb_op = function
  | T_load (a, w) -> Printf.sprintf "load %#x/%d" a w
  | T_store (a, w, v) -> Printf.sprintf "store %#x/%d %Ld" a w v
  | T_load_base (a, w) -> Printf.sprintf "load_base %#x/%d" a w
  | T_store_base (a, w, v) -> Printf.sprintf "store_base %#x/%d %Ld" a w v
  | T_read (a, n) -> Printf.sprintf "read %#x+%d" a n
  | T_write (a, s) -> Printf.sprintf "write %#x+%d" a (String.length s)
  | T_clear_dirty -> "clear_dirty"
  | T_drop p -> Printf.sprintf "drop %#x" p
  | T_track b -> Printf.sprintf "track %b" b
  | T_snapshot -> "snapshot"
  | T_restore -> "restore"

(* Remote pages arrive with a pattern derived from their number. *)
let remote_page p = Bytes.init Region.page_size (fun i -> Char.chr ((p + i) land 0xff))

type model = {
  mutable pages : (int, Bytes.t) Hashtbl.t;
  mutable dirty : (int, unit) Hashtbl.t;
  mutable track : bool;
  mutable faults : int list;                 (* newest first *)
}

let model_page role md p =
  match Hashtbl.find_opt md.pages p with
  | Some b -> b
  | None ->
    let b =
      match role with
      | Memory.Home -> Bytes.make Region.page_size '\000'
      | Memory.Remote ->
        md.faults <- p :: md.faults;
        remote_page p
    in
    Hashtbl.replace md.pages p b;
    b

let model_read role md a =
  Char.code (Bytes.get (model_page role md (Region.page_of_addr a)) (Region.offset_in_page a))

let model_write role md a v =
  let p = Region.page_of_addr a in
  Bytes.set (model_page role md p) (Region.offset_in_page a) (Char.chr (v land 0xff));
  if md.track then Hashtbl.replace md.dirty p ()

(* Byte orders follow [Scalar]: loads from the high byte down, stores
   and blocks upward, so faults arrive in the same page order. *)
let model_load role md a w =
  let acc = ref 0L in
  for i = w - 1 downto 0 do
    acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (model_read role md (a + i)))
  done;
  !acc

let model_store role md a w v =
  for i = 0 to w - 1 do
    model_write role md (a + i)
      (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
  done

let sorted_keys h = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) h [])

let tlb_agrees role ops =
  let mem = Memory.create role in
  let md =
    { pages = Hashtbl.create 64; dirty = Hashtbl.create 64; track = true;
      faults = [] }
  in
  mem.Memory.track_dirty <- true;
  let seen = ref [] in
  mem.Memory.on_fault <-
    Some
      (fun m p ->
        seen := p :: !seen;
        Memory.install_page m p (remote_page p));
  let snap = ref None in
  let step op =
    let same_value =
      match op with
      | T_load (a, w) ->
        Int64.equal (Memory.load_le mem a w) (model_load role md a w)
      | T_store (a, w, v) ->
        Memory.store_le mem a w v;
        model_store role md a w v;
        true
      | T_load_base (a, w) ->
        let base = Memory.load_base mem a w in
        let got =
          if base < 0 then Memory.load_le mem a w
          else Scalar.load_int Arch.Little
              ~read_byte:(fun x -> Char.code (Bytes.get mem.Memory.slab (base + x - a)))
              a w
        in
        Int64.equal got (model_load role md a w)
      | T_store_base (a, w, v) ->
        let base = Memory.store_base mem a w in
        if base < 0 then Memory.store_le mem a w v
        else
          Scalar.store_int Arch.Little
            ~write_byte:(fun x b -> Bytes.set mem.Memory.slab (base + x - a) (Char.chr b))
            a w v;
        model_store role md a w v;
        true
      | T_read (a, n) ->
        Bytes.equal (Memory.read_block mem a n)
          (Bytes.init n (fun i -> Char.chr (model_read role md (a + i))))
      | T_write (a, s) ->
        Memory.write_block mem a (Bytes.of_string s);
        String.iteri (fun i c -> model_write role md (a + i) (Char.code c)) s;
        true
      | T_clear_dirty ->
        Memory.clear_dirty mem;
        Hashtbl.reset md.dirty;
        true
      | T_drop p ->
        Memory.drop_page mem p;
        Hashtbl.remove md.pages p;
        Hashtbl.remove md.dirty p;
        true
      | T_track b ->
        mem.Memory.track_dirty <- b;
        md.track <- b;
        true
      | T_snapshot ->
        let copy = Hashtbl.create 64 in
        Hashtbl.iter (fun p b -> Hashtbl.replace copy p (Bytes.copy b)) md.pages;
        snap := Some (Memory.snapshot mem, copy, Hashtbl.copy md.dirty, md.track);
        true
      | T_restore ->
        (match !snap with
        | Some (s, pages, dirty, track) ->
          Memory.restore mem s;
          md.pages <- Hashtbl.create 64;
          Hashtbl.iter (fun p b -> Hashtbl.replace md.pages p (Bytes.copy b)) pages;
          md.dirty <- Hashtbl.copy dirty;
          md.track <- track
        | None -> ());
        true
    in
    same_value
    && Memory.dirty_pages mem = sorted_keys md.dirty
    && Memory.resident_pages mem = sorted_keys md.pages
    && mem.Memory.fault_count = List.length md.faults
    && !seen = md.faults
  in
  List.for_all step ops
  && List.for_all
       (fun p -> Bytes.equal (Memory.page_copy mem p) (Hashtbl.find md.pages p))
       (sorted_keys md.pages)

let prop_tlb_matches_model =
  QCheck.Test.make ~name:"64-entry TLB matches a cacheless page table"
    ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_tlb_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_tlb_op))
    (fun ops -> tlb_agrees Memory.Home ops && tlb_agrees Memory.Remote ops)

let test_stack_regions () =
  let s = Stack_alloc.mobile () in
  let mark = Stack_alloc.frame_mark s in
  let a = Stack_alloc.alloc s 24 8 in
  let b = Stack_alloc.alloc s 8 8 in
  Alcotest.(check bool) "stack grows" true (b >= a + 24);
  Stack_alloc.release s mark;
  let c = Stack_alloc.alloc s 8 8 in
  Alcotest.(check int) "frame released" a c;
  Alcotest.(check bool) "high water survives" true
    (Stack_alloc.high_water_bytes s >= 32)

(* Endianness encode/decode roundtrips and bswap involution. *)
let prop_scalar_roundtrip =
  QCheck.Test.make ~name:"scalar store/load roundtrip (LE and BE)" ~count:200
    QCheck.(pair int64 (int_range 1 8))
    (fun (v, nbytes) ->
      let check endianness =
        let buf = Bytes.make 16 '\000' in
        Scalar.store_int endianness
          ~write_byte:(fun a b -> Bytes.set buf a (Char.chr b))
          0 nbytes v;
        let got =
          Scalar.load_int endianness
            ~read_byte:(fun a -> Char.code (Bytes.get buf a))
            0 nbytes
        in
        Int64.equal got (Int64.logand v (Scalar.mask_of_bytes nbytes))
      in
      check Arch.Little && check Arch.Big)

let prop_bswap_involution =
  QCheck.Test.make ~name:"bswap twice is identity" ~count:200
    QCheck.(pair int64 (int_range 1 8))
    (fun (v, nbytes) ->
      let masked = Int64.logand v (Scalar.mask_of_bytes nbytes) in
      Int64.equal (Scalar.bswap (Scalar.bswap masked nbytes) nbytes) masked)

let test_cross_endian_bytes () =
  (* An LE store read back BE gives the swapped pattern — the bug the
     endianness translation pass exists to fix. *)
  let buf = Bytes.make 8 '\000' in
  Scalar.store_int Arch.Little
    ~write_byte:(fun a b -> Bytes.set buf a (Char.chr b))
    0 4 0x11223344L;
  let be =
    Scalar.load_int Arch.Big
      ~read_byte:(fun a -> Char.code (Bytes.get buf a))
      0 4
  in
  Alcotest.(check int64) "byte swapped" 0x44332211L be;
  Alcotest.(check int64) "bswap recovers" 0x11223344L (Scalar.bswap be 4)

let test_sign_extension () =
  Alcotest.(check int64) "0xFF as i8 = -1" (-1L) (Scalar.sign_extend 0xFFL 1);
  Alcotest.(check int64) "0x7F as i8 = 127" 127L (Scalar.sign_extend 0x7FL 1);
  Alcotest.(check int64) "i64 unchanged" Int64.min_int
    (Scalar.sign_extend Int64.min_int 8)

let tests =
  [
    Alcotest.test_case "home memory" `Quick test_home_memory;
    Alcotest.test_case "remote faults" `Quick test_remote_faults;
    Alcotest.test_case "dirty tracking" `Quick test_dirty_tracking;
    Alcotest.test_case "block ops" `Quick test_block_ops;
    Alcotest.test_case "region map" `Quick test_region_map;
    Alcotest.test_case "uva basics" `Quick test_uva_basics;
    Alcotest.test_case "uva coalescing" `Quick test_uva_coalescing;
    QCheck_alcotest.to_alcotest prop_uva_no_overlap;
    QCheck_alcotest.to_alcotest prop_touch_once_per_page;
    QCheck_alcotest.to_alcotest prop_tlb_matches_model;
    Alcotest.test_case "stack regions" `Quick test_stack_regions;
    QCheck_alcotest.to_alcotest prop_scalar_roundtrip;
    QCheck_alcotest.to_alcotest prop_bswap_involution;
    Alcotest.test_case "cross endian bytes" `Quick test_cross_endian_bytes;
    Alcotest.test_case "sign extension" `Quick test_sign_extension;
  ]
