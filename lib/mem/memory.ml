(* A device's view of the UVA space: physical pages plus a page table.

   The mobile device is the *home* of every page: touching a page it
   does not yet have simply materializes a zero page (the OS would hand
   it a fresh frame).  The server is *remote*: touching a page that is
   not resident raises a page fault, which the offloading runtime hooks
   to implement copy-on-demand (paper Section 4, Figure 5).  Writes on
   the server mark pages dirty so finalization can send only dirty
   pages back.

   Pages live in one flat [Bytes.t] slab of page-sized frames (grown by
   doubling, freed frames recycled through a free list) instead of one
   heap block per page: page-fault service, block transfer and snapshot
   capture are single blits over the slab, and scalar access goes
   through a 64-entry direct-mapped TLB (indexed by [page land 63])
   plus the stdlib's unaligned word primitives ([Bytes.get_int64_le]
   and friends), so the page table's Hashtbl is consulted only on a
   TLB miss.  The table stays the single source of truth: every
   operation that removes or remaps a page flushes the TLB.  A profiler's touch
   callback rides the same path: it fires once per page per access,
   not once per byte (see the scalar-access notes below). *)

exception Page_fault of int            (* page number, unhandled *)
exception Bad_access of int * string   (* address, reason *)

type role = Home | Remote

type t = {
  role : role;
  mutable slab : Bytes.t;            (* frame store, [frames_used] frames *)
  mutable frames_used : int;
  mutable free_frames : int list;    (* recycled frame indices *)
  table : (int, int) Hashtbl.t;      (* page number -> frame index *)
  dirty : (int, unit) Hashtbl.t;
  tlb_page : int array;              (* cached page per entry, -1 = none *)
  tlb_off : int array;               (* its frame's byte offset in [slab] *)
  tlb_dirty : Bytes.t;               (* '\001': entry's page already dirty;
                                        bytes, not bools: fleets keep two
                                        memories per client *)
  mutable on_fault : (t -> int -> unit) option;
      (* must install the page (see [install_page]) or raise *)
  mutable track_dirty : bool;
  mutable on_touch : (int -> unit) option;
      (* profiler hook: called once per page per access *)
  mutable fault_count : int;
}

(* Fleet runs create two memories per client, most touching a handful
   of pages — start tiny and double on demand (amortized ≤2x the
   resident bytes in total allocation). *)
let initial_frames = 4

let tlb_entries = 64
let tlb_mask = tlb_entries - 1

let create role =
  {
    role;
    slab = Bytes.create (initial_frames * Region.page_size);
    frames_used = 0;
    free_frames = [];
    table = Hashtbl.create 1024;
    dirty = Hashtbl.create 64;
    tlb_page = Array.make tlb_entries (-1);
    tlb_off = Array.make tlb_entries 0;
    tlb_dirty = Bytes.make tlb_entries '\000';
    track_dirty = false;
    on_fault = None;
    on_touch = None;
    fault_count = 0;
  }

(* Frame offsets are stable across growth: the old prefix is blitted
   into the larger slab, so cached [tlb_off] entries stay valid. *)
let ensure_capacity t frames =
  let need = frames * Region.page_size in
  if Bytes.length t.slab < need then begin
    let cap = ref (Bytes.length t.slab) in
    while !cap < need do
      cap := !cap * 2
    done;
    let slab = Bytes.create !cap in
    Bytes.blit t.slab 0 slab 0 (t.frames_used * Region.page_size);
    t.slab <- slab
  end

let alloc_frame t =
  match t.free_frames with
  | f :: rest ->
    t.free_frames <- rest;
    f
  | [] ->
    ensure_capacity t (t.frames_used + 1);
    let f = t.frames_used in
    t.frames_used <- f + 1;
    f

let install_page t page bytes =
  if Bytes.length bytes <> Region.page_size then
    invalid_arg "Memory.install_page: wrong page size";
  let frame =
    match Hashtbl.find_opt t.table page with
    | Some f -> f
    | None ->
      let f = alloc_frame t in
      Hashtbl.replace t.table page f;
      f
  in
  Bytes.blit bytes 0 t.slab (frame * Region.page_size) Region.page_size

let has_page t page = Hashtbl.mem t.table page

let flush_tlb t =
  Array.fill t.tlb_page 0 tlb_entries (-1);
  Bytes.fill t.tlb_dirty 0 tlb_entries '\000'

let drop_page t page =
  (match Hashtbl.find_opt t.table page with
  | Some f ->
    Hashtbl.remove t.table page;
    t.free_frames <- f :: t.free_frames
  | None -> ());
  Hashtbl.remove t.dirty page;
  flush_tlb t

let drop_all_pages t =
  Hashtbl.reset t.table;
  Hashtbl.reset t.dirty;
  t.frames_used <- 0;
  t.free_frames <- [];
  flush_tlb t

(* Byte offset in [slab] of [page]'s frame, materializing (Home) or
   faulting (Remote) exactly as the per-page store did. *)
let frame_off t page =
  match Hashtbl.find_opt t.table page with
  | Some f -> f lsl Region.page_bits
  | None -> (
    match t.role with
    | Home ->
      let f = alloc_frame t in
      let off = f lsl Region.page_bits in
      Bytes.fill t.slab off Region.page_size '\000';
      Hashtbl.replace t.table page f;
      off
    | Remote -> (
      t.fault_count <- t.fault_count + 1;
      match t.on_fault with
      | Some handler -> (
        handler t page;
        match Hashtbl.find_opt t.table page with
        | Some f -> f lsl Region.page_bits
        | None -> raise (Page_fault page))
      | None -> raise (Page_fault page)))

(* A refilled entry forgets its dirty flag: the new page may not be
   in [dirty] yet. *)
let page_off t page =
  let e = page land tlb_mask in
  if Array.unsafe_get t.tlb_page e = page then Array.unsafe_get t.tlb_off e
  else begin
    let off = frame_off t page in
    Array.unsafe_set t.tlb_page e page;
    Array.unsafe_set t.tlb_off e off;
    Bytes.unsafe_set t.tlb_dirty e '\000';
    off
  end

let check_mapped addr =
  match Region.region_of_addr addr with
  | Region.Null_guard ->
    raise (Bad_access (addr, "null pointer dereference"))
  | Region.Unmapped -> raise (Bad_access (addr, "unmapped address"))
  | Region.Globals | Region.Mobile_stack | Region.Server_stack
  | Region.Heap -> ()

let note_touched t addr =
  match t.on_touch with
  | Some callback -> callback (Region.page_of_addr addr)
  | None -> ()

(* [page] was just translated, so it holds its TLB entry. *)
let mark_dirty t page =
  let e = page land tlb_mask in
  if t.track_dirty && Bytes.unsafe_get t.tlb_dirty e = '\000' then begin
    Hashtbl.replace t.dirty page ();
    Bytes.unsafe_set t.tlb_dirty e '\001'
  end

let read_byte t addr =
  check_mapped addr;
  note_touched t addr;
  let page = Region.page_of_addr addr in
  let off = page_off t page lor Region.offset_in_page addr in
  Char.code (Bytes.get t.slab off)

let write_byte t addr v =
  check_mapped addr;
  note_touched t addr;
  let page = Region.page_of_addr addr in
  let off = page_off t page lor Region.offset_in_page addr in
  Bytes.set t.slab off (Char.chr (v land 0xff));
  if t.track_dirty then mark_dirty t page

(* Word-width scalar access, the interpreter's hot path.

   The fast path applies whenever the access stays inside one page:
   one region check (regions are page-aligned, so every byte of a
   same-page word shares the first byte's region), at most one touch
   callback, one TLB translation, one unaligned word read or write on
   the slab, and at most one dirty mark.  An access that crosses a page
   falls back to [Scalar]'s byte loop over [read_byte]/[write_byte].

   The touch contract is therefore once per page per access: the
   callback sees every page an access lies in, each before that page
   is translated (so before any fault it raises), but not once per
   byte.  Consumers that collect page sets — the profiler — see
   exactly the sets a per-byte callback produced.

   The byte order is always little-endian (the unified order);
   big-endian hosts go through the [Scalar] path in [Host]. *)

let page_limit = Region.page_size

(* Region check, touch callback and translation for an access at
   [addr] (offset [in_page] in its page) that stays inside one page:
   the access's byte offset in [slab].  Leaves the access's page in
   its TLB entry, which the store paths then mark dirty. *)
let[@inline] admit t addr in_page =
  check_mapped addr;
  let page = Region.page_of_addr addr in
  (match t.on_touch with
  | Some callback -> callback page
  | None -> ());
  page_off t page lor in_page

let load_le t addr nbytes =
  let in_page = Region.offset_in_page addr in
  if in_page + nbytes <= page_limit then begin
    let base = admit t addr in_page in
    match nbytes with
    | 8 -> Bytes.get_int64_le t.slab base
    | 4 ->
      Int64.of_int
        (Bytes.get_uint16_le t.slab base
        lor (Bytes.get_uint16_le t.slab (base + 2) lsl 16))
    | 2 -> Int64.of_int (Bytes.get_uint16_le t.slab base)
    | 1 -> Int64.of_int (Bytes.get_uint8 t.slab base)
    | _ ->
      Scalar.load_int No_arch.Arch.Little
        ~read_byte:(fun a -> Char.code (Bytes.get t.slab (base + a - addr)))
        addr nbytes
  end
  else
    Scalar.load_int No_arch.Arch.Little
      ~read_byte:(fun a -> read_byte t a)
      addr nbytes

let store_le t addr nbytes value =
  let in_page = Region.offset_in_page addr in
  if in_page + nbytes <= page_limit then begin
    let base = admit t addr in_page in
    (match nbytes with
    | 8 -> Bytes.set_int64_le t.slab base value
    | 4 ->
      let v = Int64.to_int value in
      Bytes.set_uint16_le t.slab base (v land 0xffff);
      Bytes.set_uint16_le t.slab (base + 2) ((v lsr 16) land 0xffff)
    | 2 -> Bytes.set_uint16_le t.slab base (Int64.to_int value land 0xffff)
    | 1 -> Bytes.set_uint8 t.slab base (Int64.to_int value land 0xff)
    | _ ->
      Scalar.store_int No_arch.Arch.Little
        ~write_byte:(fun a b ->
          Bytes.set t.slab (base + a - addr) (Char.chr (b land 0xff)))
        addr nbytes value);
    if t.track_dirty then mark_dirty t (Region.page_of_addr addr)
  end
  else
    Scalar.store_int No_arch.Arch.Little
      ~write_byte:(fun a b -> write_byte t a b)
      addr nbytes value

(* Fast-path admission for callers that access the slab directly (the
   interpreter's fused chains, which must not box an int64 across a
   function return): the byte offset of [addr]'s word in [slab] when
   the [nbytes] access stays inside one page — performing the same
   region check, touch callback, TLB translation and fault service as
   [load_le]/[store_le] — or -1 when the access crosses a page and the
   caller must take the [load_le]/[store_le] slow path.  [store_base]
   also marks the page dirty (bookkeeping only; the order relative to
   the write is unobservable). *)

let load_base t addr nbytes =
  let in_page = Region.offset_in_page addr in
  if in_page + nbytes <= page_limit then admit t addr in_page else -1

let store_base t addr nbytes =
  let in_page = Region.offset_in_page addr in
  if in_page + nbytes <= page_limit then begin
    let base = admit t addr in_page in
    if t.track_dirty then mark_dirty t (Region.page_of_addr addr);
    base
  end
  else -1

(* Bulk transfer helpers used by memcpy/memset builtins and by the
   communication manager: one admission (and so one touch callback)
   and one blit per page segment, visited in ascending address order
   — the order a per-byte loop would fault in. *)

let read_block t addr len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let in_page = Region.offset_in_page a in
    let seg = min (len - !pos) (page_limit - in_page) in
    Bytes.blit t.slab (admit t a in_page) out !pos seg;
    pos := !pos + seg
  done;
  out

let write_block t addr data =
  let len = Bytes.length data in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let in_page = Region.offset_in_page a in
    let seg = min (len - !pos) (page_limit - in_page) in
    Bytes.blit data !pos t.slab (admit t a in_page) seg;
    if t.track_dirty then mark_dirty t (Region.page_of_addr a);
    pos := !pos + seg
  done

(* Page-table style queries for the runtime. *)
let resident_pages t =
  Hashtbl.fold (fun page _ acc -> page :: acc) t.table []
  |> List.sort compare

let dirty_pages t =
  Hashtbl.fold (fun page _ acc -> page :: acc) t.dirty []
  |> List.sort compare

let clear_dirty t =
  Hashtbl.reset t.dirty;
  Bytes.fill t.tlb_dirty 0 tlb_entries '\000'

let resident_count t = Hashtbl.length t.table
let resident_bytes t = Hashtbl.length t.table * Region.page_size

(* Copy of a page's current contents (for transmission). *)
let page_copy t page =
  let off = page_off t page in
  Bytes.sub t.slab off Region.page_size

(* Deep snapshot of resident pages and dirty/tracking state, for
   offload recovery.  The snapshot copies the used slab prefix in one
   blit (plus the page table) rather than one copy per page; restore
   blits it back, so neither side aliases live frames. *)

type snapshot = {
  s_slab : Bytes.t;                  (* used prefix of the slab *)
  s_table : (int * int) list;        (* page, frame *)
  s_frames_used : int;
  s_free_frames : int list;
  s_dirty : int list;
  s_track_dirty : bool;
}

let snapshot t =
  {
    s_slab = Bytes.sub t.slab 0 (t.frames_used * Region.page_size);
    s_table = Hashtbl.fold (fun page f acc -> (page, f) :: acc) t.table [];
    s_frames_used = t.frames_used;
    s_free_frames = t.free_frames;
    s_dirty = Hashtbl.fold (fun page () acc -> page :: acc) t.dirty [];
    s_track_dirty = t.track_dirty;
  }

let restore t s =
  ensure_capacity t s.s_frames_used;
  Bytes.blit s.s_slab 0 t.slab 0 (Bytes.length s.s_slab);
  Hashtbl.reset t.table;
  Hashtbl.reset t.dirty;
  List.iter (fun (page, f) -> Hashtbl.replace t.table page f) s.s_table;
  List.iter (fun page -> Hashtbl.replace t.dirty page ()) s.s_dirty;
  t.frames_used <- s.s_frames_used;
  t.free_frames <- s.s_free_frames;
  flush_tlb t;
  t.track_dirty <- s.s_track_dirty

(* Profiler hook installation. *)
let set_touch_callback t callback = t.on_touch <- callback
