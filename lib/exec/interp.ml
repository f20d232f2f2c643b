(* The IR interpreter.

   Executes a module on a {!Host}, charging each instruction its cycle
   cost under the host architecture's cost model, going through the
   host memory (and therefore through the page table: on a server
   host, touching a non-resident page invokes the copy-on-demand fault
   handler), and dispatching builtins to the host's devices.  The
   offloading runtime and the profiler attach through {!Host.hooks}. *)

module Arch = No_arch.Arch
module Cost = No_arch.Cost
module Layout = No_arch.Layout
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Builtins = No_ir.Builtins
module Memory = No_mem.Memory
module Scalar = No_mem.Scalar
module Uva = No_mem.Uva
module Stack_alloc = No_mem.Stack_alloc

exception Trap of string
exception Out_of_fuel

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

(* Console/file operation latencies on the local device (syscall-ish
   costs, on the simulated-CPU time scale; the network costs of
   *remote* I/O are added by the runtime's override). *)
let local_io_seconds = 1.0e-3

let width_bits (ty : Ty.t) =
  match ty with
  | Ty.I8 -> 8
  | Ty.I16 -> 16
  | Ty.I32 -> 32
  | Ty.I64 -> 64
  | Ty.F32 -> 32
  | Ty.F64 -> 64
  | Ty.Ptr _ | Ty.Fn_ptr _ | Ty.Struct _ | Ty.Array _ | Ty.Void ->
    trap "width_bits of %s" (Ty.to_string ty)

(* Canonical integer representation: sub-word values are kept
   sign-extended; this keeps signed arithmetic trivial and makes
   unsigned operations mask explicitly. *)
let canon (ty : Ty.t) v = Scalar.sign_extend v (width_bits ty / 8)

let mask_to_width (ty : Ty.t) v =
  let bits = width_bits ty in
  if bits >= 64 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L bits) 1L)

(* A call's register file (see [Host]): int cells, float cells and one
   kind byte per slot.  Per-frame, so an effect suspension mid-chain
   cannot be clobbered by another session's client. *)
type frame = {
  host : Host.t;
  func : Host.compiled;
  ints : Bytes.t;
  floats : float array;
  kinds : Bytes.t;
}

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Out of line, so the checked reads below stay small. *)
let[@inline never] int_expected () =
  raise (Value.Type_trap "expected integer, got float")

let[@inline never] float_expected () =
  raise (Value.Type_trap "expected float, got integer")

(* Slot reads check the kind byte, as [Value.to_int]/[Value.to_float]
   checked the constructor. *)
let[@inline] get_int fr s =
  if Bytes.unsafe_get fr.kinds s <> Host.kind_int then int_expected ();
  get64u fr.ints (s lsl 3)

let[@inline] get_float fr s =
  if Bytes.unsafe_get fr.kinds s <> Host.kind_float then float_expected ();
  Array.unsafe_get fr.floats s

let[@inline] set_int fr s v =
  set64u fr.ints (s lsl 3) v;
  Bytes.unsafe_set fr.kinds s Host.kind_int

let[@inline] set_float fr s v =
  Array.unsafe_set fr.floats s v;
  Bytes.unsafe_set fr.kinds s Host.kind_float

let[@inline] set_bool fr s b = set_int fr s (if b then 1L else 0L)

(* Register access for the boxed path: box on read, unbox on write. *)
let check_reg fr r =
  if r < 0 || r >= fr.func.Host.c_nregs then invalid_arg "index out of bounds"

let get_reg fr r : Value.t =
  check_reg fr r;
  if Bytes.unsafe_get fr.kinds r = Host.kind_int then
    Value.VInt (get64u fr.ints (r lsl 3))
  else Value.VFloat (Array.unsafe_get fr.floats r)

let[@inline] reg_int fr r =
  check_reg fr r;
  get_int fr r

let set_reg fr r (v : Value.t) =
  check_reg fr r;
  match v with
  | Value.VInt x -> set_int fr r x
  | Value.VFloat x -> set_float fr r x

let read_cstring host addr =
  let buf = Buffer.create 16 in
  let rec go a =
    let b = Memory.read_byte host.Host.mem a in
    if b <> 0 then begin
      Buffer.add_char buf (Char.chr b);
      go (a + 1)
    end
  in
  go addr;
  Buffer.contents buf

let rec eval_operand frame (op : Ir.operand) : Value.t =
  match op with
  | Ir.Reg r -> get_reg frame r
  | Ir.Int (v, ty) -> Value.VInt (canon ty v)
  | Ir.Float (v, _) -> Value.VFloat v
  | Ir.Null _ -> Value.VInt 0L
  | Ir.Global name -> Value.VInt (Int64.of_int (Host.global_addr frame.host name))
  | Ir.Fn_addr name ->
    Value.VInt (Int64.of_int (Fn_table.addr_of frame.host.Host.fn_table name))

and eval_binop (op : Ir.binop) a b : Value.t =
  match op with
  | Ir.Fadd -> Value.VFloat (Value.to_float a +. Value.to_float b)
  | Ir.Fsub -> Value.VFloat (Value.to_float a -. Value.to_float b)
  | Ir.Fmul -> Value.VFloat (Value.to_float a *. Value.to_float b)
  | Ir.Fdiv -> Value.VFloat (Value.to_float a /. Value.to_float b)
  | Ir.Add | Ir.Sub | Ir.Mul | Ir.Sdiv | Ir.Udiv | Ir.Srem | Ir.Urem
  | Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.Lshr | Ir.Ashr -> (
    let x = Value.to_int a and y = Value.to_int b in
    let check_nonzero () = if Int64.equal y 0L then trap "division by zero" in
    match op with
    | Ir.Add -> Value.VInt (Int64.add x y)
    | Ir.Sub -> Value.VInt (Int64.sub x y)
    | Ir.Mul -> Value.VInt (Int64.mul x y)
    | Ir.Sdiv -> check_nonzero (); Value.VInt (Int64.div x y)
    | Ir.Udiv -> check_nonzero (); Value.VInt (Int64.unsigned_div x y)
    | Ir.Srem -> check_nonzero (); Value.VInt (Int64.rem x y)
    | Ir.Urem -> check_nonzero (); Value.VInt (Int64.unsigned_rem x y)
    | Ir.And -> Value.VInt (Int64.logand x y)
    | Ir.Or -> Value.VInt (Int64.logor x y)
    | Ir.Xor -> Value.VInt (Int64.logxor x y)
    | Ir.Shl -> Value.VInt (Int64.shift_left x (Int64.to_int y land 63))
    | Ir.Lshr ->
      Value.VInt (Int64.shift_right_logical x (Int64.to_int y land 63))
    | Ir.Ashr -> Value.VInt (Int64.shift_right x (Int64.to_int y land 63))
    | Ir.Fadd | Ir.Fsub | Ir.Fmul | Ir.Fdiv -> assert false)

and eval_cmp (op : Ir.cmpop) a b : Value.t =
  let vb =
    match op with
    | Ir.Eq -> Value.equal a b
    | Ir.Ne -> not (Value.equal a b)
    | Ir.Slt -> Int64.compare (Value.to_int a) (Value.to_int b) < 0
    | Ir.Sle -> Int64.compare (Value.to_int a) (Value.to_int b) <= 0
    | Ir.Sgt -> Int64.compare (Value.to_int a) (Value.to_int b) > 0
    | Ir.Sge -> Int64.compare (Value.to_int a) (Value.to_int b) >= 0
    | Ir.Ult -> Int64.unsigned_compare (Value.to_int a) (Value.to_int b) < 0
    | Ir.Ule -> Int64.unsigned_compare (Value.to_int a) (Value.to_int b) <= 0
    | Ir.Ugt -> Int64.unsigned_compare (Value.to_int a) (Value.to_int b) > 0
    | Ir.Uge -> Int64.unsigned_compare (Value.to_int a) (Value.to_int b) >= 0
    | Ir.Feq -> Value.to_float a = Value.to_float b
    | Ir.Fne -> Value.to_float a <> Value.to_float b
    | Ir.Flt -> Value.to_float a < Value.to_float b
    | Ir.Fle -> Value.to_float a <= Value.to_float b
    | Ir.Fgt -> Value.to_float a > Value.to_float b
    | Ir.Fge -> Value.to_float a >= Value.to_float b
  in
  Value.of_bool vb

and eval_cast (op : Ir.castop) (src : Ty.t) v (dst : Ty.t) : Value.t =
  match op with
  | Ir.Zext -> Value.VInt (canon dst (mask_to_width src (Value.to_int v)))
  | Ir.Sext -> Value.VInt (canon dst (Value.to_int v))
  | Ir.Trunc -> Value.VInt (canon dst (Value.to_int v))
  | Ir.Bitcast -> v
  | Ir.Fp_to_si -> Value.VInt (canon dst (Int64.of_float (Value.to_float v)))
  | Ir.Si_to_fp -> Value.VFloat (Int64.to_float (Value.to_int v))
  | Ir.Fp_ext -> v
  | Ir.Fp_trunc ->
    Value.VFloat (Int32.float_of_bits (Int32.bits_of_float (Value.to_float v)))
  | Ir.Ptr_to_int -> Value.VInt (canon dst (Value.to_int v))
  | Ir.Int_to_ptr -> Value.VInt (Value.to_int v)

(* Compute a GEP address under the host's layout environment.  The
   profiler runs before lowering, so the interpreter must understand
   symbolic GEPs; lowered modules contain none. *)
and eval_gep frame (pointee : Ty.t) base (path : Ir.gep_index list) : int =
  let layout = frame.host.Host.layout in
  let rec walk addr (ty : Ty.t) path =
    match path with
    | [] -> addr
    | Ir.Field fname :: rest -> (
      match ty with
      | Ty.Struct sname ->
        walk
          (addr + Layout.field_offset layout sname fname)
          (Layout.field_ty layout sname fname)
          rest
      | _ -> trap "gep: field %s of non-struct %s" fname (Ty.to_string ty))
    | Ir.Index op :: rest -> (
      let idx = Int64.to_int (Value.to_int (eval_operand frame op)) in
      match ty with
      | Ty.Array (elem, _) ->
        walk (addr + (idx * Layout.size_of layout elem)) elem rest
      | _ -> walk (addr + (idx * Layout.size_of layout ty)) ty rest)
  in
  walk (Value.to_addr (eval_operand frame base)) pointee path

and eval_rvalue frame (rv : Ir.rvalue) : Value.t =
  let host = frame.host in
  match rv with
  | Ir.Bin (op, a, b) ->
    eval_binop op (eval_operand frame a) (eval_operand frame b)
  | Ir.Cmp (op, a, b) ->
    eval_cmp op (eval_operand frame a) (eval_operand frame b)
  | Ir.Cast (op, src, a, dst) -> eval_cast op src (eval_operand frame a) dst
  | Ir.Select (c, a, b) ->
    if Value.to_bool (eval_operand frame c) then eval_operand frame a
    else eval_operand frame b
  | Ir.Load (ty, a) ->
    Host.load_scalar host ty (Value.to_addr (eval_operand frame a))
  | Ir.Alloca (ty, n) ->
    let layout = host.Host.layout in
    let size = Layout.size_of layout ty * n in
    let align = Layout.align_of layout ty in
    Value.VInt (Int64.of_int (Stack_alloc.alloc host.Host.stack size align))
  | Ir.Gep (pointee, base, path) ->
    Value.VInt (Int64.of_int (eval_gep frame pointee base path))
  | Ir.Call (name, args) ->
    let argv = List.map (eval_operand frame) args in
    call_by_name host name argv
  | Ir.Call_ind (sg, f, args) -> (
    let addr = Value.to_addr (eval_operand frame f) in
    let argv = List.map (eval_operand frame) args in
    ignore sg;
    match Fn_table.name_of host.Host.fn_table addr with
    | name -> call_by_name host name argv
    | exception Fn_table.Not_a_function _ ->
      trap "indirect call through foreign or invalid address 0x%x" addr)
  | Ir.Bswap (ty, a) -> eval_bswap frame ty (eval_operand frame a)
  | Ir.Fn_map (dir, a) -> eval_fn_map host dir (eval_operand frame a)

and eval_bswap _frame (ty : Ty.t) v : Value.t =
  let nbytes = width_bits ty / 8 in
  match ty with
  | Ty.F32 | Ty.F64 ->
    let f32 = Ty.equal ty Ty.F32 in
    let bits = Scalar.float_to_bits ~f32 (Value.to_float v) in
    Value.VFloat (Scalar.float_of_bits ~f32 (Scalar.bswap bits nbytes))
  | _ ->
    let x = Value.to_int v in
    Value.VInt (canon ty (Scalar.bswap (mask_to_width ty x) nbytes))

and eval_fn_map host dir v : Value.t =
  (* A lone host maps identically (it has only its own table); the
     offloading runtime installs the real mobile<->server translation
     and charges its cost. *)
  match host.Host.hooks.Host.fn_map with
  | Some translate -> translate dir v
  | None -> v

(* {1 Pre-decoded evaluation — the boxed path}

   Mirrors [eval_rvalue] over [Host.crv] for the instructions no chain
   covers; constants are pre-boxed, and a register is boxed from the
   frame's register file when read. *)

and eval_cop frame (op : Host.cop) : Value.t =
  match op with
  | Host.C_reg r -> get_reg frame r
  | Host.C_val v -> v
  | Host.C_slow_op op -> eval_operand frame op

and eval_args frame (args : Host.cop array) i : Value.t list =
  if i >= Array.length args then []
  else
    let v = eval_cop frame (Array.unsafe_get args i) in
    v :: eval_args frame args (i + 1)

and eval_crv frame (rv : Host.crv) : Value.t =
  let host = frame.host in
  match rv with
  | Host.C_bin (op, a, b) ->
    eval_binop op (eval_cop frame a) (eval_cop frame b)
  | Host.C_cmp (op, a, b) ->
    eval_cmp op (eval_cop frame a) (eval_cop frame b)
  | Host.C_cast (op, src, a, dst) -> eval_cast op src (eval_cop frame a) dst
  | Host.C_select (c, a, b) ->
    if Value.to_bool (eval_cop frame c) then eval_cop frame a
    else eval_cop frame b
  | Host.C_load (ty, a) ->
    Host.load_scalar host ty (Value.to_addr (eval_cop frame a))
  | Host.C_alloca (size, align) ->
    Value.VInt (Int64.of_int (Stack_alloc.alloc host.Host.stack size align))
  | Host.C_gep (base, const, dyn) ->
    let a = ref (Value.to_addr (eval_cop frame base) + const) in
    for i = 0 to Array.length dyn - 1 do
      let op, size = Array.unsafe_get dyn i in
      a := !a + (Int64.to_int (Value.to_int (eval_cop frame op)) * size)
    done;
    Value.VInt (Int64.of_int !a)
  | Host.C_call (name, args) -> call_by_name host name (eval_args frame args 0)
  | Host.C_call_ind (fp, args) -> (
    let addr = Value.to_addr (eval_cop frame fp) in
    let argv = eval_args frame args 0 in
    match Fn_table.name_of host.Host.fn_table addr with
    | name -> call_by_name host name argv
    | exception Fn_table.Not_a_function _ ->
      trap "indirect call through foreign or invalid address 0x%x" addr)
  | Host.C_bswap (ty, a) -> eval_bswap frame ty (eval_cop frame a)
  | Host.C_fn_map (dir, a) -> eval_fn_map host dir (eval_cop frame a)
  | Host.C_slow_rv rv -> eval_rvalue frame rv

(* {1 Builtins} *)

and charge_bulk host bytes =
  Host.charge_seconds host (Cost.seconds_per_byte host.Host.arch *. float_of_int bytes)

and default_builtin host name (argv : Value.t list) : Value.t =
  let arg n = List.nth argv n in
  let int_arg n = Value.to_int (arg n) in
  let addr_arg n = Value.to_addr (arg n) in
  let float_arg n = Value.to_float (arg n) in
  let console = host.Host.console in
  let io () = Host.charge_seconds host local_io_seconds in
  match name with
  | "malloc" | "u_malloc" ->
    Host.charge host Arch.Cls_alloc;
    Value.VInt (Int64.of_int (Uva.alloc host.Host.uva (Int64.to_int (int_arg 0))))
  | "free" | "u_free" ->
    Host.charge host Arch.Cls_alloc;
    Uva.dealloc host.Host.uva (addr_arg 0);
    Value.zero
  | "print_i64" | "r_print_i64" ->
    io ();
    Console.write_string console (Int64.to_string (int_arg 0));
    Value.zero
  | "print_f64" | "r_print_f64" ->
    io ();
    Console.write_string console (Printf.sprintf "%.6g" (float_arg 0));
    Value.zero
  | "print_str" | "r_print_str" ->
    io ();
    Console.write_string console (read_cstring host (addr_arg 0));
    Value.zero
  | "print_newline" | "r_print_newline" ->
    io ();
    Console.write_string console "\n";
    Value.zero
  | "scan_i64" ->
    io ();
    Value.VInt (Console.read_int console)
  | "scan_f64" ->
    io ();
    Value.VFloat (Console.read_float console)
  | "f_open" | "rf_open" ->
    io ();
    Value.VInt (Int64.of_int (Fs.open_file host.Host.fs (read_cstring host (addr_arg 0))))
  | "f_size" | "rf_size" ->
    io ();
    Value.VInt (Int64.of_int (Fs.size host.Host.fs (Int64.to_int (int_arg 0))))
  | "f_read" | "rf_read" ->
    io ();
    let chunk =
      Fs.read host.Host.fs (Int64.to_int (int_arg 0)) (Int64.to_int (int_arg 2))
    in
    Memory.write_block host.Host.mem (addr_arg 1) chunk;
    charge_bulk host (Bytes.length chunk);
    Value.VInt (Int64.of_int (Bytes.length chunk))
  | "f_close" | "rf_close" ->
    io ();
    Fs.close host.Host.fs (Int64.to_int (int_arg 0));
    Value.zero
  | "sqrt" -> Host.charge host Arch.Cls_math; Value.VFloat (sqrt (float_arg 0))
  | "sin" -> Host.charge host Arch.Cls_math; Value.VFloat (sin (float_arg 0))
  | "cos" -> Host.charge host Arch.Cls_math; Value.VFloat (cos (float_arg 0))
  | "exp" -> Host.charge host Arch.Cls_math; Value.VFloat (exp (float_arg 0))
  | "log" -> Host.charge host Arch.Cls_math; Value.VFloat (log (float_arg 0))
  | "fabs" ->
    Host.charge host Arch.Cls_math;
    Value.VFloat (Float.abs (float_arg 0))
  | "pow" ->
    Host.charge host Arch.Cls_math;
    Value.VFloat (Float.pow (float_arg 0) (float_arg 1))
  | "memcpy" ->
    let dst = addr_arg 0 and src = addr_arg 1 in
    let n = Int64.to_int (int_arg 2) in
    let data = Memory.read_block host.Host.mem src n in
    Memory.write_block host.Host.mem dst data;
    charge_bulk host (2 * n);
    Value.zero
  | "memset" ->
    let dst = addr_arg 0 in
    let v = Int64.to_int (int_arg 1) land 0xff in
    let n = Int64.to_int (int_arg 2) in
    Memory.write_block host.Host.mem dst (Bytes.make n (Char.chr v));
    charge_bulk host n;
    Value.zero
  | "syscall" ->
    (* Locally executable; never offloaded (the filter sees to it). *)
    io ();
    Value.zero
  | _ -> trap "call to unknown function %s" name

and call_by_name (host : Host.t) name (argv : Value.t list) : Value.t =
  Host.charge host Arch.Cls_branch;
  match Host.compiled host name with
  | Some compiled -> run_function host compiled argv
  | None -> (
    (* Session overrides see every non-IR call first. *)
    match host.Host.hooks.Host.builtin_override with
    | Some override when Builtins.is_builtin name -> (
      match override name argv with
      | Some result -> result
      | None -> default_builtin host name argv)
    | _ ->
      if Builtins.is_builtin name then default_builtin host name argv
      else (
        match List.assoc_opt name host.Host.modul.Ir.m_externs with
        | Some _ -> (
          match host.Host.hooks.Host.extern_call with
          | Some handler -> (
            match handler name argv with
            | Some result -> result
            | None -> trap "extern %s rejected by runtime" name)
          | None -> trap "extern %s with no runtime attached" name)
        | None -> trap "call to unknown function %s" name))

and run_function (host : Host.t) (compiled : Host.compiled) argv : Value.t =
  let f = compiled.Host.c_func in
  Host.charge host Arch.Cls_call;
  host.Host.hooks.Host.on_enter f.Ir.f_name;
  if List.length argv <> List.length f.Ir.f_params then
    trap "%s: called with %d arguments, expected %d" f.Ir.f_name
      (List.length argv) (List.length f.Ir.f_params);
  let frame =
    {
      host;
      func = compiled;
      ints = Bytes.copy compiled.Host.c_ints;
      floats = Array.copy compiled.Host.c_floats;
      kinds = Bytes.copy compiled.Host.c_kinds;
    }
  in
  List.iteri (set_reg frame) argv;
  let mark = Stack_alloc.frame_mark host.Host.stack in
  let result = run_blocks frame compiled.Host.c_entry in
  Stack_alloc.release host.Host.stack mark;
  host.Host.hooks.Host.on_exit f.Ir.f_name;
  result

and run_blocks frame idx : Value.t =
  let host = frame.host in
  let fname = frame.func.Host.c_func.Ir.f_name in
  (* Fuel is also consumed per block so an instruction-free loop
     cannot spin forever under a fuel limit. *)
  if host.Host.fuel = 0 then raise Out_of_fuel;
  if host.Host.fuel > 0 then host.Host.fuel <- host.Host.fuel - 1;
  let b = frame.func.Host.c_blocks.(idx) in
  host.Host.hooks.Host.on_block fname b.Host.cb_label;
  let instrs = b.Host.cb_instrs in
  let costs = b.Host.cb_costs in
  for i = 0 to Array.length instrs - 1 do
    match Array.unsafe_get instrs i with
    | Host.C_chain ch ->
      (* Does its own per-micro-op fuel/count/charge bookkeeping. *)
      exec_chain frame ch
    | instr ->
      (* Same per-instruction sequence as the un-decoded interpreter:
         fuel, count, charge (precomputed seconds x slowdown — the
         very floats the old [Host.charge] added, so the clock is
         bit-identical), then execute. *)
      if host.Host.fuel = 0 then raise Out_of_fuel;
      if host.Host.fuel > 0 then host.Host.fuel <- host.Host.fuel - 1;
      host.Host.instr_count <- host.Host.instr_count + 1;
      host.Host.clock.Host.now <-
        host.Host.clock.Host.now
        +. (Array.unsafe_get costs i *. host.Host.slowdown);
      (match instr with
      | Host.C_assign (r, rv) -> set_reg frame r (eval_crv frame rv)
      | Host.C_effect rv -> ignore (eval_crv frame rv)
      | Host.C_store (ty, v, a) ->
        Host.store_scalar host ty
          (Value.to_addr (eval_cop frame a))
          (eval_cop frame v)
      | Host.C_asm ->
        (* Inline assembly runs only on its own machine; the filter
           keeps it off the server.  Behaviour: an opaque no-op. *)
        ()
      | Host.C_chain _ -> assert false)
  done;
  host.Host.clock.Host.now <-
    host.Host.clock.Host.now +. (b.Host.cb_term_cost *. host.Host.slowdown);
  host.Host.instr_count <- host.Host.instr_count + 1;
  match b.Host.cb_term with
  | Host.Ct_br next -> run_blocks frame next
  | Host.Ct_cbr (c, t, e) ->
    let taken =
      match c with
      | Host.C_reg r -> not (Int64.equal (reg_int frame r) 0L)
      | _ -> Value.to_bool (eval_cop frame c)
    in
    if taken then run_blocks frame t else run_blocks frame e
  | Host.Ct_switch (v, cases, default) ->
    let scrutinee =
      match v with
      | Host.C_reg r -> reg_int frame r
      | _ -> Value.to_int (eval_cop frame v)
    in
    let n = Array.length cases in
    let target = ref default in
    let k = ref 0 in
    let searching = ref true in
    while !searching && !k < n do
      let value, i = Array.unsafe_get cases !k in
      if Int64.equal value scrutinee then begin
        target := i;
        searching := false
      end;
      incr k
    done;
    run_blocks frame !target
  | Host.Ct_ret_void -> Value.zero
  | Host.Ct_ret op -> eval_cop frame op
  | Host.Ct_unreachable -> trap "%s: reached unreachable" fname
  | Host.Ct_slow term -> exec_slow_term frame term

(* Fused chain (see Host.chain): run the micro-ops on the frame's
   register file with the same per-instruction fuel/count/clock
   sequence the boxed instructions performed.  Int cells go through
   [%caml_bytes_get64u]/[%caml_bytes_set64u] and float cells through
   the flat float array, so nothing is boxed. *)
and exec_chain fr (ch : Host.chain) : unit =
  let host = fr.host in
  let ops = ch.Host.ch_ops and costs = ch.Host.ch_costs in
  for j = 0 to Array.length ops - 1 do
    if host.Host.fuel = 0 then raise Out_of_fuel;
    if host.Host.fuel > 0 then host.Host.fuel <- host.Host.fuel - 1;
    host.Host.instr_count <- host.Host.instr_count + 1;
    host.Host.clock.Host.now <-
      host.Host.clock.Host.now
      +. (Array.unsafe_get costs j *. host.Host.slowdown);
    let m = Array.unsafe_get ops j in
    let d = m.Host.mo_dst and a = m.Host.mo_a and b = m.Host.mo_b in
    match m.Host.mo_op with
    | Host.M_add -> set_int fr d (Int64.add (get_int fr a) (get_int fr b))
    | Host.M_sub -> set_int fr d (Int64.sub (get_int fr a) (get_int fr b))
    | Host.M_mul -> set_int fr d (Int64.mul (get_int fr a) (get_int fr b))
    | Host.M_and -> set_int fr d (Int64.logand (get_int fr a) (get_int fr b))
    | Host.M_or -> set_int fr d (Int64.logor (get_int fr a) (get_int fr b))
    | Host.M_xor -> set_int fr d (Int64.logxor (get_int fr a) (get_int fr b))
    | Host.M_shl ->
      set_int fr d
        (Int64.shift_left (get_int fr a) (Int64.to_int (get_int fr b) land 63))
    | Host.M_lshr ->
      set_int fr d
        (Int64.shift_right_logical (get_int fr a)
           (Int64.to_int (get_int fr b) land 63))
    | Host.M_ashr ->
      set_int fr d
        (Int64.shift_right (get_int fr a) (Int64.to_int (get_int fr b) land 63))
    | Host.M_sdiv | Host.M_srem as op ->
      (* Charged above, like the boxed division that traps. *)
      let x = get_int fr a in
      let y = get_int fr b in
      if Int64.equal y 0L then raise (Trap "division by zero");
      set_int fr d
        (match op with Host.M_sdiv -> Int64.div x y | _ -> Int64.rem x y)
    | Host.M_udiv | Host.M_urem as op ->
      (* Kept apart: the stdlib's unsigned division returns boxed. *)
      let x = get_int fr a in
      let y = get_int fr b in
      if Int64.equal y 0L then raise (Trap "division by zero");
      set_int fr d
        (match op with
        | Host.M_udiv -> Int64.unsigned_div x y
        | _ -> Int64.unsigned_rem x y)
    | Host.M_slt ->
      set_bool fr d (Int64.compare (get_int fr a) (get_int fr b) < 0)
    | Host.M_sle ->
      set_bool fr d (Int64.compare (get_int fr a) (get_int fr b) <= 0)
    | Host.M_sgt ->
      set_bool fr d (Int64.compare (get_int fr a) (get_int fr b) > 0)
    | Host.M_sge ->
      set_bool fr d (Int64.compare (get_int fr a) (get_int fr b) >= 0)
    | Host.M_ult ->
      set_bool fr d (Int64.unsigned_compare (get_int fr a) (get_int fr b) < 0)
    | Host.M_ule ->
      set_bool fr d (Int64.unsigned_compare (get_int fr a) (get_int fr b) <= 0)
    | Host.M_ugt ->
      set_bool fr d (Int64.unsigned_compare (get_int fr a) (get_int fr b) > 0)
    | Host.M_uge ->
      set_bool fr d (Int64.unsigned_compare (get_int fr a) (get_int fr b) >= 0)
    | Host.M_eq | Host.M_ne as op ->
      (* [Value.equal]: mixed kinds differ, floats by [Float.equal]. *)
      let k = Bytes.unsafe_get fr.kinds a in
      let eq =
        k = Bytes.unsafe_get fr.kinds b
        && (if k = Host.kind_int then
              Int64.equal (get64u fr.ints (a lsl 3)) (get64u fr.ints (b lsl 3))
            else
              Float.equal (Array.unsafe_get fr.floats a)
                (Array.unsafe_get fr.floats b))
      in
      set_bool fr d (match op with Host.M_eq -> eq | _ -> not eq)
    | Host.M_fadd -> set_float fr d (get_float fr a +. get_float fr b)
    | Host.M_fsub -> set_float fr d (get_float fr a -. get_float fr b)
    | Host.M_fmul -> set_float fr d (get_float fr a *. get_float fr b)
    | Host.M_fdiv -> set_float fr d (get_float fr a /. get_float fr b)
    | Host.M_feq -> set_bool fr d (get_float fr a = get_float fr b)
    | Host.M_fne -> set_bool fr d (get_float fr a <> get_float fr b)
    | Host.M_flt -> set_bool fr d (get_float fr a < get_float fr b)
    | Host.M_fle -> set_bool fr d (get_float fr a <= get_float fr b)
    | Host.M_fgt -> set_bool fr d (get_float fr a > get_float fr b)
    | Host.M_fge -> set_bool fr d (get_float fr a >= get_float fr b)
    | Host.M_select ->
      let s = if Int64.equal (get_int fr a) 0L then m.Host.mo_n else b in
      set64u fr.ints (d lsl 3) (get64u fr.ints (s lsl 3));
      Array.unsafe_set fr.floats d (Array.unsafe_get fr.floats s);
      Bytes.unsafe_set fr.kinds d (Bytes.unsafe_get fr.kinds s)
    | Host.M_load | Host.M_load_f64 | Host.M_load_f32 as op -> (
      let a64 = get_int fr a in
      if Int64.compare a64 0L < 0 then
        raise (Value.Type_trap "negative address");
      let addr = Int64.to_int a64 in
      let nbytes = m.Host.mo_n in
      (* Only little-endian hosts fuse memory ops, so the slab's word
         order is the wire order; [load_base] performs the same
         checks, translation and fault service as [Memory.load_le]
         but hands back an offset instead of a boxed word. *)
      let mem = host.Host.mem in
      let base = Memory.load_base mem addr nbytes in
      let bits =
        if base >= 0 then
          match nbytes with
          | 8 -> Bytes.get_int64_le mem.Memory.slab base
          | 4 ->
            Int64.of_int
              (Bytes.get_uint16_le mem.Memory.slab base
              lor (Bytes.get_uint16_le mem.Memory.slab (base + 2) lsl 16))
          | 2 -> Int64.of_int (Bytes.get_uint16_le mem.Memory.slab base)
          | _ -> Int64.of_int (Bytes.get_uint8 mem.Memory.slab base)
        else Host.load_bits host addr nbytes
      in
      match op with
      | Host.M_load ->
        let s = m.Host.mo_k in
        set_int fr d (Int64.shift_right (Int64.shift_left bits s) s)
      | Host.M_load_f64 -> set_float fr d (Int64.float_of_bits bits)
      | _ -> set_float fr d (Int32.float_of_bits (Int64.to_int32 bits)))
    | Host.M_store | Host.M_store_f64 | Host.M_store_f32 as op -> (
      (* Address first: the boxed store converts it first. *)
      let a64 = get_int fr b in
      if Int64.compare a64 0L < 0 then
        raise (Value.Type_trap "negative address");
      let v =
        match op with
        | Host.M_store -> get_int fr a
        | Host.M_store_f64 -> Int64.bits_of_float (get_float fr a)
        | _ -> Int64.of_int32 (Int32.bits_of_float (get_float fr a))
      in
      let addr = Int64.to_int a64 in
      let nbytes = m.Host.mo_n in
      let mem = host.Host.mem in
      let base = Memory.store_base mem addr nbytes in
      if base >= 0 then
        match nbytes with
        | 8 -> Bytes.set_int64_le mem.Memory.slab base v
        | 4 ->
          let x = Int64.to_int v in
          Bytes.set_uint16_le mem.Memory.slab base (x land 0xffff);
          Bytes.set_uint16_le mem.Memory.slab (base + 2)
            ((x lsr 16) land 0xffff)
        | 2 ->
          Bytes.set_uint16_le mem.Memory.slab base (Int64.to_int v land 0xffff)
        | _ -> Bytes.set_uint8 mem.Memory.slab base (Int64.to_int v land 0xff)
      else Host.store_bits host addr nbytes v)
    | Host.M_gep ->
      let base = get_int fr a in
      if Int64.compare base 0L < 0 then
        raise (Value.Type_trap "negative address");
      let withc = Int64.add base (Int64.of_int m.Host.mo_k) in
      let sum =
        if b >= 0 then
          Int64.add withc (Int64.mul (get_int fr b) (Int64.of_int m.Host.mo_n))
        else withc
      in
      (* Address arithmetic wraps at the native-int width, exactly as
         the boxed walk's [int] accumulator did. *)
      set_int fr d (Int64.of_int (Int64.to_int sum))
    | Host.M_move -> set_int fr d (get_int fr a)
    | Host.M_canon ->
      let s = m.Host.mo_n in
      set_int fr d (Int64.shift_right (Int64.shift_left (get_int fr a) s) s)
    | Host.M_zext ->
      let z = m.Host.mo_n and s = m.Host.mo_k in
      let x = Int64.shift_right_logical (Int64.shift_left (get_int fr a) z) z in
      set_int fr d (Int64.shift_right (Int64.shift_left x s) s)
    | Host.M_si_to_fp -> set_float fr d (Int64.to_float (get_int fr a))
    | Host.M_fp_to_si ->
      let s = m.Host.mo_n in
      set_int fr d
        (Int64.shift_right
           (Int64.shift_left (Int64.of_float (get_float fr a)) s)
           s)
    | Host.M_fp_trunc ->
      set_float fr d (Int32.float_of_bits (Int32.bits_of_float (get_float fr a)))
  done

(* Terminator naming a block the compile pass could not resolve: jump
   by label so only the taken edge traps, as before. *)
and exec_slow_term frame (term : Ir.terminator) : Value.t =
  let fname = frame.func.Host.c_func.Ir.f_name in
  let jump label =
    match Hashtbl.find_opt frame.func.Host.c_index label with
    | Some i -> run_blocks frame i
    | None -> trap "%s: jump to unknown block %s" fname label
  in
  match term with
  | Ir.Br next -> jump next
  | Ir.Cbr (c, t, e) ->
    if Value.to_bool (eval_operand frame c) then jump t else jump e
  | Ir.Switch (v, cases, default) -> (
    let scrutinee = Value.to_int (eval_operand frame v) in
    match
      List.find_opt (fun (value, _) -> Int64.equal value scrutinee) cases
    with
    | Some (_, target) -> jump target
    | None -> jump default)
  | Ir.Ret _ | Ir.Unreachable ->
    (* Always compiled to their [cterm] forms. *)
    assert false

(* {1 Entry points} *)

let call host name argv =
  match Host.compiled host name with
  | Some compiled -> run_function host compiled argv
  | None -> trap "no function %s in module %s" name host.Host.modul.Ir.m_name

let run_main host = call host "main" []
