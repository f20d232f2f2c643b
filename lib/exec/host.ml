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
   {!Value.t}s shared across executions, so the inner loop allocates
   only for values it actually computes.  Anything that cannot be
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

(* {2 Fused straight-line chains}

   A run of arithmetic, compare, memory and cast instructions whose
   intermediates never escape the run is compiled to a [chain]: a
   micro-op program over a per-frame [float array] scratch — the one
   unboxed mutable store the non-flambda compiler gives us.  Each slot
   has exactly one kind.  An int slot holds an int64 bit pattern via
   [Int64.float_of_bits] (bits_of_float/float_of_bits of values
   consumed by int64 primitives stay unboxed); a float slot holds the
   float itself.  So a fused add, fmul, division, load or store
   allocates nothing: only chain inputs (register preloads) and
   live-out results touch boxed {!Value.t}s.

   Observable equivalence: each micro-op performs the same fuel check,
   instruction count bump and clock charge (same floats, same order)
   as the instruction it replaces, and divisions test for zero after
   that charge, raising the same trap.  Loads and stores go through
   the same memory entry points (same faults, same dirty marks, same
   touch callbacks).  A preload reads its register at the slot's kind
   through [Value.to_int]/[Value.to_float], so an ill-typed register
   raises the [Type_trap] message the unfused instruction would have
   raised (before the chain's first charge, where the unfused run
   charged the reading instruction first); an operand whose slot
   already has the other kind ends the chain and runs boxed.
   [Eq]/[Ne] (mixed-kind tolerant), [Select], [Bitcast] and [Fp_ext]
   (type-agnostic identities), calls, and every memory op on a
   big-endian host are never fused.  Dead intermediates simply stop
   being written to the register file, which nothing can observe —
   hooks see labels, not registers, and an abandoned frame's registers
   die with it. *)

(* Slot kinds.  A bool is an int slot whose live-out boxes to the
   shared [Value.vtrue]/[Value.vfalse]. *)
let kind_int = 0
let kind_bool = 1
let kind_float = 2

type mop =
  | M_add | M_sub | M_mul | M_and | M_or | M_xor | M_shl | M_lshr | M_ashr
  | M_sdiv | M_udiv | M_srem | M_urem      (* trap on a zero divisor *)
  | M_slt | M_sle | M_sgt | M_sge | M_ult | M_ule | M_ugt | M_uge
  | M_fadd | M_fsub | M_fmul | M_fdiv
  | M_feq | M_fne | M_flt | M_fle | M_fgt | M_fge
  | M_load          (* mo_n bytes, then sign-shift mo_k; f64 bits as-is *)
  | M_load_f32
  | M_store         (* value mo_a, addr mo_b, mo_n bytes; f64 bits as-is *)
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
  mo_dst : int;                 (* scratch slot; -1 for stores *)
  mo_a : int;                   (* first operand slot *)
  mo_b : int;                   (* second operand slot; -1 if absent *)
  mo_n : int;                   (* width in bytes / gep scale / shift *)
  mo_k : int;                   (* sign-extend shift / gep constant *)
}

type chain = {
  ch_pre : int array;            (* slot, reg, kind triples: boxed reads in *)
  ch_imm_slots : int array;      (* constant slots ... *)
  ch_imm_vals : float array;     (* ... and their slot contents *)
  ch_ops : micro array;
  ch_costs : float array;        (* seconds per micro-op, this arch *)
  ch_post : int array;           (* reg, slot, kind triples out *)
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
  c_scratch : int;               (* chain scratch slots a frame needs *)
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

(* How many times each register is read, across the whole function
   (instruction operands, gep paths, call arguments, terminators).
   Fusion uses this to decide whether a chain-written register is
   dead — consumed entirely inside the chain — or must be boxed back
   into the register file. *)
let reg_read_counts (f : Ir.func) : int array =
  let counts = Array.make (max f.Ir.f_nregs 1) 0 in
  let op = function
    | Ir.Reg r -> if r >= 0 && r < Array.length counts then
        counts.(r) <- counts.(r) + 1
    | Ir.Int _ | Ir.Float _ | Ir.Null _ | Ir.Global _ | Ir.Fn_addr _ -> ()
  in
  let rv = function
    | Ir.Bin (_, a, b) | Ir.Cmp (_, a, b) -> op a; op b
    | Ir.Cast (_, _, a, _) | Ir.Load (_, a) | Ir.Bswap (_, a)
    | Ir.Fn_map (_, a) -> op a
    | Ir.Select (c, a, b) -> op c; op a; op b
    | Ir.Alloca _ -> ()
    | Ir.Gep (_, base, path) ->
      op base;
      List.iter (function Ir.Index o -> op o | Ir.Field _ -> ()) path
    | Ir.Call (_, args) -> List.iter op args
    | Ir.Call_ind (_, fp, args) -> op fp; List.iter op args
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (function
          | Ir.Assign (_, r) -> rv r
          | Ir.Effect r -> rv r
          | Ir.Store (_, v, a) -> op v; op a
          | Ir.Asm _ -> ())
        b.Ir.instrs;
      match b.Ir.term with
      | Ir.Cbr (c, _, _) -> op c
      | Ir.Switch (v, _, _) -> op v
      | Ir.Ret (Some o) -> op o
      | Ir.Br _ | Ir.Ret None | Ir.Unreachable -> ())
    f.Ir.f_blocks;
  counts

(* Micro-op and operand kind of a binop; every binop fuses. *)
let binop_code (op : Ir.binop) =
  match op with
  | Ir.Add -> (M_add, kind_int)
  | Ir.Sub -> (M_sub, kind_int)
  | Ir.Mul -> (M_mul, kind_int)
  | Ir.Sdiv -> (M_sdiv, kind_int)
  | Ir.Udiv -> (M_udiv, kind_int)
  | Ir.Srem -> (M_srem, kind_int)
  | Ir.Urem -> (M_urem, kind_int)
  | Ir.And -> (M_and, kind_int)
  | Ir.Or -> (M_or, kind_int)
  | Ir.Xor -> (M_xor, kind_int)
  | Ir.Shl -> (M_shl, kind_int)
  | Ir.Lshr -> (M_lshr, kind_int)
  | Ir.Ashr -> (M_ashr, kind_int)
  | Ir.Fadd -> (M_fadd, kind_float)
  | Ir.Fsub -> (M_fsub, kind_float)
  | Ir.Fmul -> (M_fmul, kind_float)
  | Ir.Fdiv -> (M_fdiv, kind_float)

let cmp_code (op : Ir.cmpop) =
  match op with
  | Ir.Slt -> Some (M_slt, kind_int)
  | Ir.Sle -> Some (M_sle, kind_int)
  | Ir.Sgt -> Some (M_sgt, kind_int)
  | Ir.Sge -> Some (M_sge, kind_int)
  | Ir.Ult -> Some (M_ult, kind_int)
  | Ir.Ule -> Some (M_ule, kind_int)
  | Ir.Ugt -> Some (M_ugt, kind_int)
  | Ir.Uge -> Some (M_uge, kind_int)
  | Ir.Feq -> Some (M_feq, kind_float)
  | Ir.Fne -> Some (M_fne, kind_float)
  | Ir.Flt -> Some (M_flt, kind_float)
  | Ir.Fle -> Some (M_fle, kind_float)
  | Ir.Fgt -> Some (M_fgt, kind_float)
  | Ir.Fge -> Some (M_fge, kind_float)
  (* Eq/Ne go through [Value.equal], which tolerates mixed int/float
     operands; a kinded slot would not. *)
  | Ir.Eq | Ir.Ne -> None

let int_bits_of_ty (ty : Ty.t) =
  match ty with
  | Ty.I8 -> Some 8
  | Ty.I16 -> Some 16
  | Ty.I32 -> Some 32
  | Ty.I64 -> Some 64
  | Ty.F32 | Ty.F64 | Ty.Ptr _ | Ty.Fn_ptr _ | Ty.Struct _ | Ty.Array _
  | Ty.Void -> None

(* Width, post-load sign shift and slot kind of a fusible memory
   access; ptr-width accesses are unsigned (shift 0), matching
   [load_scalar]/[store_scalar].  An f64 slot holds exactly the bits
   [Int64.float_of_bits] makes of the word, so f64 accesses share the
   integer micro-ops; only f32 needs its own conversion.  Fused memory
   ops read the little-endian slab word directly, so big-endian hosts
   keep their loads and stores on the interpreted path. *)
let mem_params arch (ty : Ty.t) =
  if arch.Arch.endianness <> Arch.Little then None
  else
    match ty with
    | Ty.F64 -> Some (M_load, M_store, 8, 0, kind_float)
    | Ty.F32 -> Some (M_load_f32, M_store_f32, 4, 0, kind_float)
    | Ty.Ptr _ | Ty.Fn_ptr _ ->
      Some (M_load, M_store, Arch.ptr_bytes arch, 0, kind_int)
    | _ -> (
      match int_bits_of_ty ty with
      | Some bits -> Some (M_load, M_store, bits / 8, 64 - bits, kind_int)
      | None -> None)

(* Micro-op, mo_n, mo_k, operand kind and result kind of a fusible
   cast. *)
let cast_params (op : Ir.castop) (src : Ty.t) (dst : Ty.t) =
  let canon_to_dst code src_kind =
    match int_bits_of_ty dst with
    | Some db -> Some (code, 64 - db, 0, src_kind, kind_int)
    | None -> None
  in
  match op with
  | Ir.Zext -> (
    match (int_bits_of_ty src, int_bits_of_ty dst) with
    | Some sb, Some db ->
      Some (M_zext, 64 - sb, 64 - db, kind_int, kind_int)
    | _ -> None)
  | Ir.Sext | Ir.Trunc | Ir.Ptr_to_int -> canon_to_dst M_canon kind_int
  | Ir.Fp_to_si -> canon_to_dst M_fp_to_si kind_float
  | Ir.Int_to_ptr -> Some (M_move, 0, 0, kind_int, kind_int)
  | Ir.Si_to_fp -> Some (M_si_to_fp, 0, 0, kind_int, kind_float)
  | Ir.Fp_trunc -> Some (M_fp_trunc, 0, 0, kind_float, kind_float)
  | Ir.Bitcast | Ir.Fp_ext -> None     (* identities, even on mistyped values *)

(* Rewrite a compiled block, replacing maximal runs of fusible
   instructions with [C_chain] nodes.  Returns the block and the
   number of scratch slots its chains need. *)
let fuse_block ~arch ~(reads : int array) (cb : cblock) : cblock * int =
  let out = ref [] in                      (* (cinstr, cost), reversed *)
  let max_slots = ref 0 in
  (* Per-chain state. *)
  let next_slot = ref 0 in
  let slot_kind : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let slot_of_reg : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let imm_slot : (int * int64, int) Hashtbl.t = Hashtbl.create 8 in
  let pre = ref [] and imms = ref [] and ops = ref [] in
  let written : (int, int) Hashtbl.t = Hashtbl.create 8 in  (* reg -> kind *)
  let chain_reads : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let read_before_write : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let pending = ref [] in                  (* originals, for short chains *)
  let reset () =
    next_slot := 0;
    Hashtbl.reset slot_kind;
    Hashtbl.reset slot_of_reg;
    Hashtbl.reset imm_slot;
    pre := []; imms := []; ops := [];
    Hashtbl.reset written;
    Hashtbl.reset chain_reads;
    Hashtbl.reset read_before_write;
    pending := []
  in
  let fits kind = function
    | C_reg r -> (
      match Hashtbl.find_opt slot_of_reg r with
      | Some s -> Hashtbl.find slot_kind s = kind
      | None -> true)
    | C_val (Value.VInt _) -> kind = kind_int
    | C_val (Value.VFloat _) -> kind = kind_float
    | C_slow_op _ -> false
  in
  (* Every (kind, operand) of one instruction fits, and a register the
     chain has not bound yet is not read at two kinds. *)
  let fusible operands =
    List.for_all
      (fun (k, c) ->
        fits k c
        && List.for_all
             (fun (k', c') ->
               match (c, c') with
               | C_reg r, C_reg r' -> k = k' || r <> r'
               | _ -> true)
             operands)
      operands
  in
  let new_slot kind =
    let s = !next_slot in
    incr next_slot;
    Hashtbl.replace slot_kind s
      (if kind = kind_float then kind_float else kind_int);
    s
  in
  let resolve kind (c : cop) : int =
    match c with
    | C_reg r -> (
      Hashtbl.replace chain_reads r
        (1 + Option.value ~default:0 (Hashtbl.find_opt chain_reads r));
      match Hashtbl.find_opt slot_of_reg r with
      | Some s -> s
      | None ->
        Hashtbl.replace read_before_write r ();
        let s = new_slot kind in
        Hashtbl.replace slot_of_reg r s;
        pre := (s, r, kind) :: !pre;
        s)
    | C_val v -> (
      let key, contents =
        match v with
        | Value.VInt bits -> ((kind_int, bits), Int64.float_of_bits bits)
        | Value.VFloat f -> ((kind_float, Int64.bits_of_float f), f)
      in
      match Hashtbl.find_opt imm_slot key with
      | Some s -> s
      | None ->
        let s = new_slot kind in
        Hashtbl.replace imm_slot key s;
        imms := (s, contents) :: !imms;
        s)
    | C_slow_op _ -> assert false
  in
  let bind_write r kind =
    let s = new_slot kind in
    Hashtbl.replace slot_of_reg r s;
    Hashtbl.replace written r kind;
    s
  in
  let add instr cost mo_op mo_dst mo_a mo_b mo_n mo_k =
    ops := ({ mo_op; mo_dst; mo_a; mo_b; mo_n; mo_k }, cost) :: !ops;
    pending := (instr, cost) :: !pending;
    true
  in
  let flush () =
    (if List.length !ops >= 2 then begin
       let post =
         Hashtbl.fold
           (fun r kind acc ->
             let total =
               if r < Array.length reads then reads.(r) else max_int
             in
             let inside =
               Option.value ~default:0 (Hashtbl.find_opt chain_reads r)
             in
             if total - inside > 0 || Hashtbl.mem read_before_write r then
               (r, Hashtbl.find slot_of_reg r, kind) :: acc
             else acc)
           written []
       in
       let ops_l = List.rev !ops in
       let flat3 l =
         Array.of_list (List.concat_map (fun (a, b, c) -> [ a; b; c ]) l)
       in
       let chain =
         {
           ch_pre = flat3 (List.rev !pre);
           ch_imm_slots = Array.of_list (List.rev_map fst !imms);
           ch_imm_vals = Array.of_list (List.rev_map snd !imms);
           ch_ops = Array.of_list (List.map fst ops_l);
           ch_costs = Array.of_list (List.map snd ops_l);
           ch_post = flat3 post;
         }
       in
       max_slots := max !max_slots !next_slot;
       out := (C_chain chain, 0.0) :: !out
     end
     else List.iter (fun ic -> out := ic :: !out) (List.rev !pending));
    reset ()
  in
  let n = Array.length cb.cb_instrs in
  for i = 0 to n - 1 do
    let instr = cb.cb_instrs.(i) and cost = cb.cb_costs.(i) in
    let fused =
      match instr with
      | C_assign (r, C_bin (op, a, b)) ->
        let code, k = binop_code op in
        if fusible [ (k, a); (k, b) ] then begin
          let sa = resolve k a in
          let sb = resolve k b in
          add instr cost code (bind_write r k) sa sb 0 0
        end
        else false
      | C_assign (r, C_cmp (op, a, b)) -> (
        match cmp_code op with
        | Some (code, k) when fusible [ (k, a); (k, b) ] ->
          let sa = resolve k a in
          let sb = resolve k b in
          add instr cost code (bind_write r kind_bool) sa sb 0 0
        | _ -> false)
      | C_assign (r, C_load (ty, a)) -> (
        match mem_params arch ty with
        | Some (code, _, nbytes, shift, k) when fusible [ (kind_int, a) ] ->
          let sa = resolve kind_int a in
          add instr cost code (bind_write r k) sa (-1) nbytes shift
        | _ -> false)
      | C_store (ty, v, a) -> (
        match mem_params arch ty with
        | Some (_, code, nbytes, _, k) when fusible [ (kind_int, a); (k, v) ] ->
          (* Address first: the unfused store converts it first. *)
          let sa = resolve kind_int a in
          let sv = resolve k v in
          add instr cost code (-1) sv sa nbytes 0
        | _ -> false)
      | C_assign (r, C_gep (base, const, dyn))
        when Array.length dyn <= 1
             && fusible
                  ((kind_int, base)
                  :: List.map (fun (c, _) -> (kind_int, c)) (Array.to_list dyn))
        ->
        let sb = resolve kind_int base in
        let sidx, scale =
          if Array.length dyn = 0 then (-1, 0)
          else
            let c, size = dyn.(0) in
            (resolve kind_int c, size)
        in
        add instr cost M_gep (bind_write r kind_int) sb sidx scale const
      | C_assign (r, C_cast (op, src, a, dst)) -> (
        match cast_params op src dst with
        | Some (code, n, k, src_kind, dst_kind)
          when fusible [ (src_kind, a) ] ->
          let sa = resolve src_kind a in
          add instr cost code (bind_write r dst_kind) sa (-1) n k
        | _ -> false)
      | C_assign _ | C_effect _ | C_asm | C_chain _ -> false
    in
    if not fused then begin
      flush ();
      out := (instr, cost) :: !out
    end
  done;
  flush ();
  let l = List.rev !out in
  ( {
      cb with
      cb_instrs = Array.of_list (List.map fst l);
      cb_costs = Array.of_list (List.map snd l);
    },
    !max_slots )

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
  let reads = reg_read_counts f in
  let scratch = ref 0 in
  let c_blocks =
    Array.map
      (fun b ->
        let fused, slots = fuse_block ~arch ~reads (cblock b) in
        if slots > !scratch then scratch := slots;
        fused)
      blocks
  in
  {
    c_func = f;
    c_blocks;
    c_index;
    c_entry = (match idx_of entry_label with Some i -> i | None -> 0);
    c_scratch = !scratch;
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
