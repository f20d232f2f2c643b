(* A device execution context: one machine running one IR module.

   A host bundles the architecture, the device memory and stack, the
   loaded globals, the function address table, the I/O devices, the
   simulated clock and the hook points through which the profiler and
   the offloading runtime observe and redirect execution. *)

module Arch = No_arch.Arch
module Cost = No_arch.Cost
module Layout = No_arch.Layout
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Memory = No_mem.Memory
module Uva = No_mem.Uva
module Stack_alloc = No_mem.Stack_alloc

type clock = { mutable now : float }

type hooks = {
  mutable on_enter : string -> unit;
  mutable on_exit : string -> unit;
  mutable on_block : string -> string -> unit;   (* function, label *)
  mutable fn_map : (Ir.fn_map_dir -> Value.t -> Value.t) option;
      (* function-pointer translation; None = identity (single host) *)
  mutable extern_call : (string -> Value.t list -> Value.t option) option;
      (* services the module's [m_externs]; returning None traps *)
  mutable builtin_override : (string -> Value.t list -> Value.t option) option;
      (* consulted before default builtins; lets the runtime intercept
         remote I/O and allocation on the server *)
}

let default_hooks () = {
  on_enter = (fun _ -> ());
  on_exit = (fun _ -> ());
  on_block = (fun _ _ -> ());
  fn_map = None;
  extern_call = None;
  builtin_override = None;
}

(* {1 Pre-decoded function bodies}

   Each IR function is lowered once, at host creation, into a form the
   interpreter can run without per-instruction decode work: block
   labels become array indices, per-instruction cycle costs become
   precomputed seconds under this host's cost model (the same float
   the old per-instruction [Cost.seconds_of] call produced, so the
   simulated clock advances bit-identically), and constant operands —
   literals, globals, function addresses — become pre-boxed
   {!Value.t}s for the boxed path and constant slots of the register
   file for fused chains (below).  Anything that cannot be
   resolved statically (unknown global, non-struct field access, …)
   falls back to a [C_slow*]/[Ct_slow] node interpreted exactly like
   the original IR: same traps, same messages, same charges. *)

type cop =
  | C_reg of int
  | C_val of Value.t            (* pre-boxed constant, already canonical *)
  | C_slow_op of Ir.operand     (* resolved (and trapping) per use *)

type crv =
  | C_bin of Ir.binop * cop * cop
  | C_cmp of Ir.cmpop * cop * cop
  | C_cast of Ir.castop * Ty.t * cop * Ty.t
  | C_select of cop * cop * cop
  | C_load of Ty.t * cop
  | C_alloca of int * int                  (* size, align *)
  | C_gep of cop * int * (cop * int) array (* base + const + Σ idxᵢ·sizeᵢ *)
  | C_call of string * cop array
  | C_call_ind of cop * cop array
  | C_bswap of Ty.t * cop
  | C_fn_map of Ir.fn_map_dir * cop
  | C_slow_rv of Ir.rvalue

(* {2 The register file and fused chains}

   A frame keeps its registers unboxed, in three parallel arrays
   indexed by slot: int cells (int64 bit patterns, 8 bytes per slot in
   a [Bytes.t]), float cells (a flat [float array]) and one kind byte
   per slot saying which cell is live.  Slots [\[0, nregs)] are the
   registers; slots [\[nregs, nslots)] hold the function's constants,
   deduplicated by (kind, bits) at compile time.  [compiled] carries
   the three arrays as a template that every call copies, so the
   shared table stays immutable.  A register never written reads as
   integer 0, as the boxed register array's [Value.zero] did.

   A run of one or more arithmetic, compare, select, memory and cast
   instructions whose operands are registers or constants compiles to
   a [chain]: micro-ops that read and write slots directly, so they
   allocate nothing.  Each micro-op performs the same fuel check,
   instruction count bump and clock charge (same floats, same order)
   as the instruction it replaces; then each operand read checks its
   slot's kind byte and raises the [Type_trap] message the boxed
   evaluator raised, in the order the boxed evaluator converted its
   operands.  Divisions test for zero after that, raising the same
   trap.  Loads and stores go through the same memory entry points
   (same faults, same dirty marks, same touch callbacks).  [Eq]/[Ne]
   compare kind bytes first, as [Value.equal] does; [Select] copies
   the chosen slot with its kind.

   Everything else runs boxed: [Bitcast] and [Fp_ext] (type-agnostic
   identities), calls, [bswap], [fn_map], [alloca], multi-index GEPs,
   every memory op on a big-endian host, and instructions with a slow
   operand.  The boxed path boxes a register when it reads it and
   unboxes it when it writes it. *)

let kind_int = '\000'
let kind_float = '\001'

type mop =
  | M_add | M_sub | M_mul | M_and | M_or | M_xor | M_shl | M_lshr | M_ashr
  | M_sdiv | M_udiv | M_srem | M_urem      (* trap on a zero divisor *)
  | M_slt | M_sle | M_sgt | M_sge | M_ult | M_ule | M_ugt | M_uge
  | M_eq | M_ne                            (* [Value.equal] over kinds *)
  | M_fadd | M_fsub | M_fmul | M_fdiv
  | M_feq | M_fne | M_flt | M_fle | M_fgt | M_fge
  | M_select        (* cond mo_a, then mo_b, else mo_n *)
  | M_load          (* mo_n bytes, then sign-shift mo_k *)
  | M_load_f64
  | M_load_f32
  | M_store         (* value mo_a, addr mo_b, mo_n bytes *)
  | M_store_f64
  | M_store_f32
  | M_gep           (* base mo_a + mo_k + idx mo_b * mo_n *)
  | M_move
  | M_canon         (* (x shl mo_n) asr mo_n *)
  | M_zext          (* zero-fill mo_n then canon mo_k *)
  | M_si_to_fp
  | M_fp_to_si      (* then canon mo_n *)
  | M_fp_trunc

type micro = {
  mo_op : mop;
  mo_dst : int;                 (* slot; -1 for stores *)
  mo_a : int;                   (* first operand slot *)
  mo_b : int;                   (* second operand slot; -1 if absent *)
  mo_n : int;                   (* width in bytes / gep scale / shift *)
  mo_k : int;                   (* sign-extend shift / gep constant *)
}

type chain = {
  ch_ops : micro array;
  ch_costs : float array;        (* seconds per micro-op, this arch *)
}

type cinstr =
  | C_assign of int * crv
  | C_effect of crv
  | C_store of Ty.t * cop * cop            (* value, addr *)
  | C_asm
  | C_chain of chain

type cterm =
  | Ct_br of int
  | Ct_cbr of cop * int * int
  | Ct_switch of cop * (int64 * int) array * int
  | Ct_ret_void
  | Ct_ret of cop
  | Ct_unreachable
  | Ct_slow of Ir.terminator               (* names an unknown block *)

type cblock = {
  cb_label : string;
  cb_instrs : cinstr array;
  cb_costs : float array;       (* seconds per instruction, this arch *)
  cb_term : cterm;
  cb_term_cost : float;
}

type compiled = {
  c_func : Ir.func;
  c_blocks : cblock array;
  c_index : (string, int) Hashtbl.t;       (* label -> block index *)
  c_entry : int;
  c_nregs : int;                 (* register slots; constants follow *)
  c_ints : Bytes.t;              (* slot templates, copied per call *)
  c_floats : float array;
  c_kinds : Bytes.t;
}

type t = {
  arch : Arch.t;
  mem : Memory.t;
  stack : Stack_alloc.t;
  layout : Layout.env;           (* layout the module was lowered with *)
  modul : Ir.modul;
  globals : (string, int) Hashtbl.t;
  fn_table : Fn_table.t;
  uva : Uva.t;
  console : Console.t;
  fs : Fs.t;
  clock : clock;
  hooks : hooks;
  sink : No_trace.Trace.sink;    (* runtime event spine; shared with the
                                    session that owns this host *)
  code : (string, compiled) Hashtbl.t;
  mutable instr_count : int;
  mutable fuel : int;            (* instructions left; -1 = unlimited *)
  mutable slowdown : float;      (* execution-time multiplier; a shared,
                                    contended server runs its slice of
                                    the machine >1x slower.  1.0 (the
                                    multiplicative identity) is
                                    bit-for-bit the uncontended host *)
}

let binop_code (op : Ir.binop) =
  match op with
  | Ir.Add -> M_add
  | Ir.Sub -> M_sub
  | Ir.Mul -> M_mul
  | Ir.Sdiv -> M_sdiv
  | Ir.Udiv -> M_udiv
  | Ir.Srem -> M_srem
  | Ir.Urem -> M_urem
  | Ir.And -> M_and
  | Ir.Or -> M_or
  | Ir.Xor -> M_xor
  | Ir.Shl -> M_shl
  | Ir.Lshr -> M_lshr
  | Ir.Ashr -> M_ashr
  | Ir.Fadd -> M_fadd
  | Ir.Fsub -> M_fsub
  | Ir.Fmul -> M_fmul
  | Ir.Fdiv -> M_fdiv

let cmp_code (op : Ir.cmpop) =
  match op with
  | Ir.Eq -> M_eq
  | Ir.Ne -> M_ne
  | Ir.Slt -> M_slt
  | Ir.Sle -> M_sle
  | Ir.Sgt -> M_sgt
  | Ir.Sge -> M_sge
  | Ir.Ult -> M_ult
  | Ir.Ule -> M_ule
  | Ir.Ugt -> M_ugt
  | Ir.Uge -> M_uge
  | Ir.Feq -> M_feq
  | Ir.Fne -> M_fne
  | Ir.Flt -> M_flt
  | Ir.Fle -> M_fle
  | Ir.Fgt -> M_fgt
  | Ir.Fge -> M_fge

let int_bits_of_ty (ty : Ty.t) =
  match ty with
  | Ty.I8 -> Some 8
  | Ty.I16 -> Some 16
  | Ty.I32 -> Some 32
  | Ty.I64 -> Some 64
  | Ty.F32 | Ty.F64 | Ty.Ptr _ | Ty.Fn_ptr _ | Ty.Struct _ | Ty.Array _
  | Ty.Void -> None

(* Load op, store op, width and post-load sign shift of a fusible
   memory access; ptr-width accesses are unsigned (shift 0), matching
   [load_scalar]/[store_scalar].  Fused memory ops read the
   little-endian slab word directly, so big-endian hosts keep their
   loads and stores on the boxed path. *)
let mem_params arch (ty : Ty.t) =
  if arch.Arch.endianness <> Arch.Little then None
  else
    match ty with
    | Ty.F64 -> Some (M_load_f64, M_store_f64, 8, 0)
    | Ty.F32 -> Some (M_load_f32, M_store_f32, 4, 0)
    | Ty.Ptr _ | Ty.Fn_ptr _ -> Some (M_load, M_store, Arch.ptr_bytes arch, 0)
    | _ -> (
      match int_bits_of_ty ty with
      | Some bits -> Some (M_load, M_store, bits / 8, 64 - bits)
      | None -> None)

(* Micro-op, mo_n and mo_k of a fusible cast. *)
let cast_params (op : Ir.castop) (src : Ty.t) (dst : Ty.t) =
  let canon_to_dst code =
    match int_bits_of_ty dst with
    | Some db -> Some (code, 64 - db, 0)
    | None -> None
  in
  match op with
  | Ir.Zext -> (
    match (int_bits_of_ty src, int_bits_of_ty dst) with
    | Some sb, Some db -> Some (M_zext, 64 - sb, 64 - db)
    | _ -> None)
  | Ir.Sext | Ir.Trunc | Ir.Ptr_to_int -> canon_to_dst M_canon
  | Ir.Fp_to_si -> canon_to_dst M_fp_to_si
  | Ir.Int_to_ptr -> Some (M_move, 0, 0)
  | Ir.Si_to_fp -> Some (M_si_to_fp, 0, 0)
  | Ir.Fp_trunc -> Some (M_fp_trunc, 0, 0)
  | Ir.Bitcast | Ir.Fp_ext -> None     (* identities, even on mistyped values *)

(* Rewrite a compiled block, replacing each maximal run of fusible
   instructions with a [C_chain].  [slot] gives an operand's slot, or
   None when the operand can only be evaluated boxed. *)
let fuse_block ~arch ~(slot : cop -> int option) (cb : cblock) : cblock =
  let ( let* ) = Option.bind in
  let out = ref [] in                      (* (cinstr, cost), reversed *)
  let run = ref [] in                      (* (micro, cost), reversed *)
  let flush () =
    if !run <> [] then begin
      let ops = List.rev !run in
      let chain =
        {
          ch_ops = Array.of_list (List.map fst ops);
          ch_costs = Array.of_list (List.map snd ops);
        }
      in
      out := (C_chain chain, 0.0) :: !out;
      run := []
    end
  in
  let micro ?(b = -1) ?(n = 0) ?(k = 0) mo_op mo_dst mo_a =
    Some { mo_op; mo_dst; mo_a; mo_b = b; mo_n = n; mo_k = k }
  in
  Array.iteri
    (fun i instr ->
      let cost = cb.cb_costs.(i) in
      let fused =
        match instr with
        | C_assign (r, C_bin (op, a, b)) ->
          let* d = slot (C_reg r) in
          let* sa = slot a in
          let* sb = slot b in
          micro (binop_code op) d sa ~b:sb
        | C_assign (r, C_cmp (op, a, b)) ->
          let* d = slot (C_reg r) in
          let* sa = slot a in
          let* sb = slot b in
          micro (cmp_code op) d sa ~b:sb
        | C_assign (r, C_select (c, a, b)) ->
          let* d = slot (C_reg r) in
          let* sc = slot c in
          let* sa = slot a in
          let* sb = slot b in
          micro M_select d sc ~b:sa ~n:sb
        | C_assign (r, C_load (ty, a)) ->
          let* code, _, nbytes, shift = mem_params arch ty in
          let* d = slot (C_reg r) in
          let* sa = slot a in
          micro code d sa ~n:nbytes ~k:shift
        | C_store (ty, v, a) ->
          let* _, code, nbytes, _ = mem_params arch ty in
          let* sa = slot a in
          let* sv = slot v in
          micro code (-1) sv ~b:sa ~n:nbytes
        | C_assign (r, C_gep (base, const, dyn)) when Array.length dyn <= 1 ->
          let* d = slot (C_reg r) in
          let* sb = slot base in
          if Array.length dyn = 0 then micro M_gep d sb ~k:const
          else
            let c, size = dyn.(0) in
            let* si = slot c in
            micro M_gep d sb ~b:si ~n:size ~k:const
        | C_assign (r, C_cast (op, src, a, dst)) ->
          let* code, n, k = cast_params op src dst in
          let* d = slot (C_reg r) in
          let* sa = slot a in
          micro code d sa ~n ~k
        | C_assign _ | C_effect _ | C_asm | C_chain _ -> None
      in
      match fused with
      | Some m -> run := (m, cost) :: !run
      | None ->
        flush ();
        out := (instr, cost) :: !out)
    cb.cb_instrs;
  flush ();
  let l = List.rev !out in
  {
    cb with
    cb_instrs = Array.of_list (List.map fst l);
    cb_costs = Array.of_list (List.map snd l);
  }

let compile_func ~(arch : Arch.t) ~(layout : Layout.env)
    ~(globals : (string, int) Hashtbl.t) ~(fn_table : Fn_table.t)
    (f : Ir.func) : compiled =
  let scalar_bytes (ty : Ty.t) =
    match ty with
    | Ty.I8 -> Some 1
    | Ty.I16 -> Some 2
    | Ty.I32 | Ty.F32 -> Some 4
    | Ty.I64 | Ty.F64 -> Some 8
    | Ty.Ptr _ | Ty.Fn_ptr _ | Ty.Struct _ | Ty.Array _ | Ty.Void -> None
  in
  let cop (op : Ir.operand) : cop =
    match op with
    | Ir.Reg r -> C_reg r
    | Ir.Int (v, ty) -> (
      (* Same canonicalization the interpreter applied per evaluation:
         sub-word literals are kept sign-extended. *)
      match scalar_bytes ty with
      | Some n -> C_val (Value.VInt (No_mem.Scalar.sign_extend v n))
      | None -> C_slow_op op)
    | Ir.Float (v, _) -> C_val (Value.VFloat v)
    | Ir.Null _ -> C_val Value.zero
    | Ir.Global name -> (
      match Hashtbl.find_opt globals name with
      | Some addr -> C_val (Value.VInt (Int64.of_int addr))
      | None -> C_slow_op op)
    | Ir.Fn_addr name -> (
      match Fn_table.addr_of fn_table name with
      | addr -> C_val (Value.VInt (Int64.of_int addr))
      | exception _ -> C_slow_op op)
  in
  let gep (pointee : Ty.t) base path : crv =
    (* Static part of the layout walk: field offsets always, index
       scaling when the index is a literal.  Integer address addition
       is exact, so folding constants cannot change the result. *)
    match
      let rec walk acc dyn (ty : Ty.t) = function
        | [] -> (acc, List.rev dyn)
        | Ir.Field fname :: rest -> (
          match ty with
          | Ty.Struct sname ->
            walk
              (acc + Layout.field_offset layout sname fname)
              dyn
              (Layout.field_ty layout sname fname)
              rest
          | _ -> raise Exit)
        | Ir.Index op :: rest -> (
          let elem, size =
            match ty with
            | Ty.Array (e, _) -> (e, Layout.size_of layout e)
            | _ -> (ty, Layout.size_of layout ty)
          in
          match cop op with
          | C_val (Value.VInt v) ->
            walk (acc + (Int64.to_int v * size)) dyn elem rest
          | c -> walk acc ((c, size) :: dyn) elem rest)
      in
      walk 0 [] pointee path
    with
    | const, dyn -> C_gep (cop base, const, Array.of_list dyn)
    | exception _ -> C_slow_rv (Ir.Gep (pointee, base, path))
  in
  let crv (rv : Ir.rvalue) : crv =
    match rv with
    | Ir.Bin (op, a, b) -> C_bin (op, cop a, cop b)
    | Ir.Cmp (op, a, b) -> C_cmp (op, cop a, cop b)
    | Ir.Cast (op, src, a, dst) -> C_cast (op, src, cop a, dst)
    | Ir.Select (c, a, b) -> C_select (cop c, cop a, cop b)
    | Ir.Load (ty, a) -> C_load (ty, cop a)
    | Ir.Alloca (ty, n) -> (
      match (Layout.size_of layout ty, Layout.align_of layout ty) with
      | size, align -> C_alloca (size * n, align)
      | exception _ -> C_slow_rv rv)
    | Ir.Gep (pointee, base, path) -> gep pointee base path
    | Ir.Call (name, args) -> C_call (name, Array.of_list (List.map cop args))
    | Ir.Call_ind (_sg, fp, args) ->
      C_call_ind (cop fp, Array.of_list (List.map cop args))
    | Ir.Bswap (ty, a) -> C_bswap (ty, cop a)
    | Ir.Fn_map (dir, a) -> C_fn_map (dir, cop a)
  in
  let cinstr (instr : Ir.instr) : cinstr =
    match instr with
    | Ir.Assign (r, rv) -> C_assign (r, crv rv)
    | Ir.Effect rv -> C_effect (crv rv)
    | Ir.Store (ty, v, a) -> C_store (ty, cop v, cop a)
    | Ir.Asm _ -> C_asm
  in
  let blocks = Array.of_list f.Ir.f_blocks in
  let c_index = Hashtbl.create (2 * Array.length blocks) in
  Array.iteri
    (fun i (b : Ir.block) -> Hashtbl.replace c_index b.Ir.label i)
    blocks;
  let idx_of label = Hashtbl.find_opt c_index label in
  let cterm (term : Ir.terminator) : cterm =
    match term with
    | Ir.Br l -> (
      match idx_of l with Some i -> Ct_br i | None -> Ct_slow term)
    | Ir.Cbr (c, t, e) -> (
      match (idx_of t, idx_of e) with
      | Some ti, Some ei -> Ct_cbr (cop c, ti, ei)
      | _ -> Ct_slow term)
    | Ir.Switch (v, cases, default) -> (
      match idx_of default with
      | None -> Ct_slow term
      | Some di ->
        let rec conv acc = function
          | [] -> Some (List.rev acc)
          | (value, l) :: rest -> (
            match idx_of l with
            | Some i -> conv ((value, i) :: acc) rest
            | None -> None)
        in
        (match conv [] cases with
        | Some cases -> Ct_switch (cop v, Array.of_list cases, di)
        | None -> Ct_slow term))
    | Ir.Ret None -> Ct_ret_void
    | Ir.Ret (Some op) -> Ct_ret (cop op)
    | Ir.Unreachable -> Ct_unreachable
  in
  let cblock (b : Ir.block) : cblock =
    {
      cb_label = b.Ir.label;
      cb_instrs = Array.of_list (List.map cinstr b.Ir.instrs);
      cb_costs =
        Array.of_list
          (List.map
             (fun i -> Cost.seconds_of arch (Cost.class_of_instr i))
             b.Ir.instrs);
      cb_term = cterm b.Ir.term;
      cb_term_cost = Cost.seconds_of arch (Cost.class_of_terminator b.Ir.term);
    }
  in
  let entry_label = (Ir.entry_block f).Ir.label in
  (* Registers take slots [0, nregs); each distinct constant a micro-op
     reads gets the next slot. *)
  let nregs = max f.Ir.f_nregs 1 in
  let consts = Hashtbl.create 16 in        (* (kind, bits) -> slot *)
  let const_vals = ref [] in               (* (slot, value) *)
  let slot = function
    | C_reg r -> if r >= 0 && r < nregs then Some r else None
    | C_val v -> (
      let key =
        match v with
        | Value.VInt bits -> (kind_int, bits)
        | Value.VFloat x -> (kind_float, Int64.bits_of_float x)
      in
      match Hashtbl.find_opt consts key with
      | Some s -> Some s
      | None ->
        let s = nregs + Hashtbl.length consts in
        Hashtbl.replace consts key s;
        const_vals := (s, v) :: !const_vals;
        Some s)
    | C_slow_op _ -> None
  in
  let c_blocks = Array.map (fun b -> fuse_block ~arch ~slot (cblock b)) blocks in
  let nslots = nregs + Hashtbl.length consts in
  let c_ints = Bytes.make (8 * nslots) '\000' in
  let c_floats = Array.make nslots 0.0 in
  let c_kinds = Bytes.make nslots kind_int in
  List.iter
    (fun (s, v) ->
      match v with
      | Value.VInt bits -> Bytes.set_int64_ne c_ints (8 * s) bits
      | Value.VFloat x ->
        c_floats.(s) <- x;
        Bytes.set c_kinds s kind_float)
    !const_vals;
  {
    c_func = f;
    c_blocks;
    c_index;
    c_entry = (match idx_of entry_label with Some i -> i | None -> 0);
    c_nregs = nregs;
    c_ints;
    c_floats;
    c_kinds;
  }

(* Emit a runtime event stamped with this host's simulated clock. *)
let emit host ev =
  if not (No_trace.Trace.is_null host.sink) then
    host.sink.No_trace.Trace.emit ~ts:host.clock.now ev

type role = Mobile | Server

let stack_of_role = function
  | Mobile -> Stack_alloc.mobile ()
  | Server -> Stack_alloc.server ()

let globals_base_of_role = function
  | Mobile -> No_mem.Region.globals_base
  | Server -> No_mem.Region.globals_base + 0x0200_0000

(* Create a host for [modul] on [arch] in [role].

   [layout] is the layout environment the module's GEPs were lowered
   with (native for an untransformed module, unified for partitioned
   ones).  [fn_addr_standard] resolves function names to the addresses
   stored in memory for function-pointer initializers: for unified
   setups this is the *mobile* table regardless of which device we
   are.  [uva], [console], [fs] and [clock] may be shared between the
   two hosts of an offloading session. *)
(* Default per-role function table, shared by [create] and
   [compile_module]. *)
let role_fn_table role (modul : Ir.modul) =
  let names = List.map (fun (f : Ir.func) -> f.Ir.f_name) modul.Ir.m_funcs in
  match role with
  | Mobile -> Fn_table.mobile names
  | Server -> Fn_table.server names

(* Pre-decode [modul]'s functions without creating a host.  Everything
   the lowering depends on — cost model, layout walk results, global
   and function addresses — is a deterministic function of
   (arch, role, modul, layout, fn_table), so the returned table can be
   shared by every host created with equal inputs (pass it to [create]
   via [?code]); the table is immutable after this call. *)
let compile_module ~arch ~role ~(modul : Ir.modul) ~layout
    ?(fn_table : Fn_table.t option) () : (string, compiled) Hashtbl.t =
  let fn_table =
    match fn_table with
    | Some table -> table
    | None -> role_fn_table role modul
  in
  let assignments, _next =
    Loader.assign_addresses layout ~base:(globals_base_of_role role)
      modul.Ir.m_globals
  in
  let globals = Hashtbl.create 64 in
  List.iter (fun (name, addr) -> Hashtbl.replace globals name addr) assignments;
  let code = Hashtbl.create 64 in
  List.iter
    (fun (f : Ir.func) ->
      Hashtbl.replace code f.Ir.f_name
        (compile_func ~arch ~layout ~globals ~fn_table f))
    modul.Ir.m_funcs;
  code

let create ~arch ~role ~(modul : Ir.modul) ~layout
    ?(fn_table : Fn_table.t option) ?(fn_addr_standard : (string -> int) option)
    ?(uva : Uva.t option) ?(console : Console.t option) ?(fs : Fs.t option)
    ?(clock : clock option) ?(sink = No_trace.Trace.null)
    ?(code : (string, compiled) Hashtbl.t option) () : t =
  let mem =
    Memory.create (match role with Mobile -> Memory.Home | Server -> Memory.Remote)
  in
  let fn_table =
    match fn_table with
    | Some table -> table
    | None -> role_fn_table role modul
  in
  let fn_addr_standard =
    match fn_addr_standard with
    | Some resolve -> resolve
    | None -> Fn_table.addr_of fn_table
  in
  let assignments, _next =
    Loader.assign_addresses layout ~base:(globals_base_of_role role)
      modul.Ir.m_globals
  in
  let globals = Hashtbl.create 64 in
  List.iter (fun (name, addr) -> Hashtbl.replace globals name addr) assignments;
  let host =
    {
      arch;
      mem;
      stack = stack_of_role role;
      layout;
      modul;
      globals;
      fn_table;
      uva = (match uva with Some u -> u | None -> Uva.create ());
      console = (match console with Some c -> c | None -> Console.create ());
      fs = (match fs with Some f -> f | None -> Fs.create ());
      clock = (match clock with Some c -> c | None -> { now = 0.0 });
      hooks = default_hooks ();
      sink;
      code =
        (match code with Some shared -> shared | None -> Hashtbl.create 64);
      instr_count = 0;
      fuel = -1;
      slowdown = 1.0;
    }
  in
  (match code with
  | Some _ -> ()     (* pre-decoded table shared by the caller *)
  | None ->
    List.iter
      (fun (f : Ir.func) ->
        Hashtbl.replace host.code f.Ir.f_name
          (compile_func ~arch ~layout ~globals ~fn_table f))
      modul.Ir.m_funcs);
  (* Materialize globals.  On a Remote host this would fault, so only
     Home memories get initial contents; a server reads globals it
     needs through copy-on-demand...  *except* that each device's
     non-UVA globals are its own (separate native addresses), so we
     install them directly as resident pages. *)
  let write_byte addr v =
    match role with
    | Mobile -> Memory.write_byte mem addr v
    | Server ->
      (* Install the page as resident before writing. *)
      let page = No_mem.Region.page_of_addr addr in
      if not (Memory.has_page mem page) then
        Memory.install_page mem page (Bytes.make No_mem.Region.page_size '\000');
      Memory.write_byte mem addr v
  in
  List.iter
    (fun (g : Ir.global) ->
      let addr = Hashtbl.find globals g.Ir.g_name in
      Loader.write_init ~layout ~endianness:arch.Arch.endianness ~write_byte
        ~fn_addr:fn_addr_standard ~addr g.Ir.g_ty g.Ir.g_init)
    modul.Ir.m_globals;
  emit host
    (No_trace.Trace.Module_load
       {
         role = (match role with Mobile -> "mobile" | Server -> "server");
         functions = List.length modul.Ir.m_funcs;
         globals = List.length modul.Ir.m_globals;
       });
  host

let charge host cls =
  host.clock.now <-
    host.clock.now +. (Cost.seconds_of host.arch cls *. host.slowdown)

let charge_seconds host s =
  host.clock.now <- host.clock.now +. (s *. host.slowdown)

let global_addr host name =
  match Hashtbl.find_opt host.globals name with
  | Some addr -> addr
  | None -> invalid_arg (Printf.sprintf "Host.global_addr: %s" name)

let compiled host name = Hashtbl.find_opt host.code name

(* {1 Endianness-aware scalar memory access at native widths} *)

let scalar_mem_bytes host (ty : Ty.t) =
  match ty with
  | Ty.I8 -> 1
  | Ty.I16 -> 2
  | Ty.I32 | Ty.F32 -> 4
  | Ty.I64 | Ty.F64 -> 8
  | Ty.Ptr _ | Ty.Fn_ptr _ -> Arch.ptr_bytes host.arch
  | Ty.Struct _ | Ty.Array _ | Ty.Void ->
    invalid_arg "Host.scalar_mem_bytes: not a scalar"

(* Little-endian hosts hit the word-width slab path in [Memory];
   big-endian ones go through [Scalar]'s byte loop (the closure there
   is off the dominant path — the reference archs are all LE). *)
let load_bits host addr nbytes =
  match host.arch.Arch.endianness with
  | Arch.Little -> Memory.load_le host.mem addr nbytes
  | Arch.Big ->
    No_mem.Scalar.load_int Arch.Big
      ~read_byte:(fun a -> Memory.read_byte host.mem a)
      addr nbytes

let store_bits host addr nbytes bits =
  match host.arch.Arch.endianness with
  | Arch.Little -> Memory.store_le host.mem addr nbytes bits
  | Arch.Big ->
    No_mem.Scalar.store_int Arch.Big
      ~write_byte:(fun a b -> Memory.write_byte host.mem a b)
      addr nbytes bits

let load_scalar host (ty : Ty.t) addr : Value.t =
  let nbytes = scalar_mem_bytes host ty in
  let bits = load_bits host addr nbytes in
  match ty with
  | Ty.F32 -> Value.VFloat (No_mem.Scalar.float_of_bits ~f32:true bits)
  | Ty.F64 -> Value.VFloat (No_mem.Scalar.float_of_bits ~f32:false bits)
  | Ty.I8 | Ty.I16 | Ty.I32 | Ty.I64 ->
    Value.VInt (No_mem.Scalar.sign_extend bits nbytes)
  | Ty.Ptr _ | Ty.Fn_ptr _ ->
    (* Addresses are unsigned: no sign extension. *)
    Value.VInt bits
  | Ty.Struct _ | Ty.Array _ | Ty.Void -> assert false

let store_scalar host (ty : Ty.t) addr (v : Value.t) : unit =
  let nbytes = scalar_mem_bytes host ty in
  let bits =
    match ty with
    | Ty.F32 -> No_mem.Scalar.float_to_bits ~f32:true (Value.to_float v)
    | Ty.F64 -> No_mem.Scalar.float_to_bits ~f32:false (Value.to_float v)
    | Ty.I8 | Ty.I16 | Ty.I32 | Ty.I64 | Ty.Ptr _ | Ty.Fn_ptr _ ->
      Value.to_int v
    | Ty.Struct _ | Ty.Array _ | Ty.Void -> assert false
  in
  store_bits host addr nbytes bits
