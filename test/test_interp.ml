(* End-to-end interpreter tests: build small programs with the
   builder, validate them, run them on a mobile host, check results,
   console output, clock advancement and memory behaviour. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Validate = No_ir.Validate
module Arch = No_arch.Arch
module Layout = No_arch.Layout
module Host = No_exec.Host
module Interp = No_exec.Interp
module Value = No_exec.Value
module Console = No_exec.Console

let structs_of m name = Ir.find_struct_exn m name

let make_host ?(arch = Arch.arm32) ?(script = []) (m : Ir.modul) =
  Validate.check_module m;
  let layout = Layout.env_of_arch arch ~structs:(structs_of m) in
  let host =
    Host.create ~arch ~role:Host.Mobile ~modul:m ~layout
      ~console:(Console.create ~script ()) ()
  in
  host

let run_main_int ?arch ?script m =
  let host = make_host ?arch ?script m in
  Value.to_int (Interp.run_main host)

(* sum of 0..9 via a counted loop *)
let test_loop_sum () =
  let t = B.create "loop_sum" in
  let _f =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let acc = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0) acc;
        B.for_ fb ~name:"for_i" ~from:(B.i64 0) ~below:(B.i64 10) (fun iv ->
            let cur = B.load fb Ty.I64 acc in
            let next = B.iadd fb cur iv in
            B.store fb Ty.I64 next acc);
        let result = B.load fb Ty.I64 acc in
        B.ret fb (Some result))
  in
  let m = B.finish t in
  Alcotest.(check int64) "sum 0..9" 45L (run_main_int m)

(* recursion: fibonacci *)
let test_fib () =
  let t = B.create "fib" in
  let _ =
    B.func t "fib" ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        let n = List.nth args 0 in
        let is_small = B.cmp fb Ir.Slt n (B.i64 2) in
        B.if_ fb is_small ~then_:(fun () -> B.ret fb (Some n)) ();
        let a = B.call fb "fib" [ B.isub fb n (B.i64 1) ] in
        let b = B.call fb "fib" [ B.isub fb n (B.i64 2) ] in
        B.ret fb (Some (B.iadd fb a b)))
  in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        B.ret fb (Some (B.call fb "fib" [ B.i64 12 ])))
  in
  let m = B.finish t in
  Alcotest.(check int64) "fib 12" 144L (run_main_int m)

(* struct field access through GEP, heap allocation *)
let test_struct_heap () =
  let t = B.create "struct_heap" in
  let move_ty =
    B.struct_ t "Move" [ ("from", Ty.I8); ("to", Ty.I8); ("score", Ty.F64) ]
  in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let raw = B.call fb "malloc" [ B.i64 64 ] in
        let p = B.cast fb Ir.Bitcast ~src:(Ty.Ptr Ty.I8) raw ~dst:(Ty.Ptr move_ty) in
        let score_addr = B.gep fb move_ty p [ Ir.Field "score" ] in
        B.store fb Ty.F64 (B.f64 2.5) score_addr;
        let from_addr = B.gep fb move_ty p [ Ir.Field "from" ] in
        B.store fb Ty.I8 (B.i8 7) from_addr;
        let score = B.load fb Ty.F64 score_addr in
        let doubled = B.fmul fb score (B.f64 2.0) in
        let as_int = B.cast fb Ir.Fp_to_si ~src:Ty.F64 doubled ~dst:Ty.I64 in
        let from = B.load fb Ty.I8 from_addr in
        let from64 = B.cast fb Ir.Sext ~src:Ty.I8 from ~dst:Ty.I64 in
        B.effect fb (Ir.Call ("free", [ raw ]));
        B.ret fb (Some (B.iadd fb as_int from64)))
  in
  let m = B.finish t in
  Alcotest.(check int64) "5 + 7" 12L (run_main_int m)

(* global variables with initializers *)
let test_globals () =
  let t = B.create "globals" in
  B.global t "counter" Ty.I64 (Ir.Int_init (40L, Ty.I64));
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let v = B.load fb Ty.I64 (Ir.Global "counter") in
        let v2 = B.iadd fb v (B.i64 2) in
        B.store fb Ty.I64 v2 (Ir.Global "counter");
        B.ret fb (Some (B.load fb Ty.I64 (Ir.Global "counter"))))
  in
  let m = B.finish t in
  Alcotest.(check int64) "global rmw" 42L (run_main_int m)

(* console I/O: scripted input, captured output *)
let test_console_io () =
  let t = B.create "console" in
  let hello = B.cstr t "answer=" in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let a = B.call fb "scan_i64" [] in
        let b = B.call fb "scan_i64" [] in
        let sum = B.iadd fb a b in
        B.call_void fb "print_str" [ hello ];
        B.call_void fb "print_i64" [ sum ];
        B.call_void fb "print_newline" [];
        B.ret fb (Some sum))
  in
  let m = B.finish t in
  let host =
    make_host ~script:[ Console.In_int 19L; Console.In_int 23L ] m
  in
  let result = Value.to_int (Interp.run_main host) in
  Alcotest.(check int64) "sum" 42L result;
  Alcotest.(check string) "output" "answer=42\n"
    (Console.contents host.Host.console)

(* indirect calls through a function-pointer table global *)
let test_fn_ptr_table () =
  let t = B.create "fnptr" in
  let sg = Ty.signature [ Ty.I64 ] Ty.I64 in
  let fp = Ty.Fn_ptr sg in
  B.global t "handlers" (Ty.Array (fp, 2))
    (Ir.Array_init [ Ir.Fn_init "double_it"; Ir.Fn_init "square_it" ]);
  let _ =
    B.func t "double_it" ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        B.ret fb (Some (B.imul fb (List.nth args 0) (B.i64 2))))
  in
  let _ =
    B.func t "square_it" ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        let x = List.nth args 0 in
        B.ret fb (Some (B.imul fb x x)))
  in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let table = Ty.Array (fp, 2) in
        let slot1 =
          B.gep fb table (Ir.Global "handlers") [ Ir.Index (B.i64 1) ]
        in
        let f = B.load fb fp slot1 in
        let squared = B.call_ind fb sg f [ B.i64 6 ] in
        B.ret fb (Some squared))
  in
  let m = B.finish t in
  Alcotest.(check int64) "square via table" 36L (run_main_int m)

(* clock advances; mobile is slower than server on the same program *)
let test_clock_and_ratio () =
  let build () =
    let t = B.create "spin" in
    let _ =
      B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
          let acc = B.alloca fb Ty.I64 1 in
          B.store fb Ty.I64 (B.i64 0) acc;
          B.for_ fb ~name:"spin" ~from:(B.i64 0) ~below:(B.i64 1000)
            (fun iv ->
              let cur = B.load fb Ty.I64 acc in
              B.store fb Ty.I64 (B.iadd fb cur iv) acc);
          B.ret fb (Some (B.load fb Ty.I64 acc)))
    in
    B.finish t
  in
  let time_on arch =
    let host = make_host ~arch (build ()) in
    ignore (Interp.run_main host);
    host.Host.clock.Host.now
  in
  let tm = time_on Arch.arm32 and ts = time_on Arch.x86_64 in
  Alcotest.(check bool) "mobile time positive" true (tm > 0.0);
  let ratio = tm /. ts in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f in [3,9]" ratio)
    true
    (ratio > 3.0 && ratio < 9.0)

(* traps *)
let test_traps () =
  let div_zero () =
    let t = B.create "divz" in
    let _ =
      B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
          let zero_reg = B.iadd fb (B.i64 0) (B.i64 0) in
          B.ret fb (Some (B.idiv fb (B.i64 1) zero_reg)))
    in
    B.finish t
  in
  (match Interp.run_main (make_host (div_zero ())) with
  | _ -> Alcotest.fail "expected div-by-zero trap"
  | exception Interp.Trap _ -> ());
  let null_deref () =
    let t = B.create "nullderef" in
    let _ =
      B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
          let p =
            B.cast fb Ir.Int_to_ptr ~src:Ty.I64 (B.i64 8) ~dst:(Ty.Ptr Ty.I64)
          in
          B.ret fb (Some (B.load fb Ty.I64 p)))
    in
    B.finish t
  in
  match Interp.run_main (make_host (null_deref ())) with
  | _ -> Alcotest.fail "expected null-deref trap"
  | exception No_mem.Memory.Bad_access (addr, _) ->
    Alcotest.(check bool) "fault in null guard" true (addr < 0x1_0000)

(* Trap parity on hand-built, unvalidated one-block modules: whatever
   the interpreter fuses, an ill-typed operand raises the same
   [Type_trap], a zero divisor raises the same [Trap] after the same
   charges, and a well-typed chain advances count and clock exactly
   as instruction-at-a-time execution did. *)
let one_block_host ?(arch = Arch.arm32) nregs instrs ret =
  let main =
    {
      Ir.f_name = "main";
      f_params = [];
      f_ret = Ty.I64;
      f_blocks =
        [ { Ir.label = "entry"; instrs; term = Ir.Ret (Some (Ir.Reg ret)) } ];
      f_nregs = nregs;
    }
  in
  let m =
    {
      Ir.m_name = "one_block";
      m_structs = [];
      m_globals = [];
      m_funcs = [ main ];
      m_externs = [];
      m_uva_globals = [];
    }
  in
  let layout = Layout.env_of_arch arch ~structs:(structs_of m) in
  Host.create ~arch ~role:Host.Mobile ~modul:m ~layout ()

(* Instructions [main] runs as fused micro-ops, so each parity test
   also checks that it exercises the chain it is about. *)
let fused_ops host =
  match Host.compiled host "main" with
  | None -> 0
  | Some c ->
    Array.fold_left
      (fun acc (b : Host.cblock) ->
        Array.fold_left
          (fun acc -> function
            | Host.C_chain ch -> acc + Array.length ch.Host.ch_ops
            | _ -> acc)
          acc b.Host.cb_instrs)
      0 c.Host.c_blocks

let i64 v = Ir.Int (v, Ty.I64)
let f64 v = Ir.Float (v, Ty.F64)

let expect_type_trap msg ~fused host =
  Alcotest.(check int) "fused micro-ops" fused (fused_ops host);
  match Interp.run_main host with
  | _ -> Alcotest.fail ("expected Type_trap " ^ msg)
  | exception Value.Type_trap got -> Alcotest.(check string) "message" msg got

let float_into_int_instrs =
  [
    Ir.Assign (0, Ir.Cast (Ir.Bitcast, Ty.F64, f64 1.5, Ty.I64));
    Ir.Assign (1, Ir.Bin (Ir.Add, Ir.Reg 0, i64 1L));
    Ir.Assign (2, Ir.Bin (Ir.Add, Ir.Reg 1, i64 2L));
    Ir.Assign (3, Ir.Bin (Ir.Add, Ir.Reg 2, i64 3L));
  ]

let test_trap_float_into_int_chain () =
  expect_type_trap "expected integer, got float" ~fused:3
    (one_block_host 4 float_into_int_instrs 3)

(* The trap fires at the reading add, after its charge: the count and
   clock are those of instruction-at-a-time execution (call, bitcast,
   add). *)
let test_trap_float_into_int_exact () =
  let arch = Arch.arm32 in
  let host = one_block_host ~arch 4 float_into_int_instrs 3 in
  expect_type_trap "expected integer, got float" ~fused:3 host;
  let cost i = No_arch.Cost.seconds_of arch (No_arch.Cost.class_of_instr i) in
  let expected =
    (0. +. No_arch.Cost.seconds_of arch Arch.Cls_call)
    +. cost (List.nth float_into_int_instrs 0)
    +. cost (List.nth float_into_int_instrs 1)
  in
  Alcotest.(check int) "instructions at trap" 2 host.Host.instr_count;
  Alcotest.(check string) "clock at trap" (Printf.sprintf "%h" expected)
    (Printf.sprintf "%h" host.Host.clock.Host.now);
  Alcotest.(check string) "clock value" "0x1.124eb71d381f3p-14"
    (Printf.sprintf "%h" host.Host.clock.Host.now)

let test_trap_int_into_float_chain () =
  expect_type_trap "expected float, got integer" ~fused:4
    (one_block_host 5
       [
         Ir.Assign (0, Ir.Cast (Ir.Bitcast, Ty.I64, i64 5L, Ty.F64));
         Ir.Assign (1, Ir.Bin (Ir.Fadd, Ir.Reg 0, f64 1.0));
         Ir.Assign (2, Ir.Bin (Ir.Fadd, Ir.Reg 1, f64 2.0));
         Ir.Assign (3, Ir.Bin (Ir.Fadd, Ir.Reg 2, f64 3.0));
         Ir.Assign (4, Ir.Cast (Ir.Fp_to_si, Ty.F64, Ir.Reg 3, Ty.I64));
       ]
       4)

(* Count and clock recorded from instruction-at-a-time execution. *)
let test_trap_div_zero_in_chain () =
  let host =
    one_block_host 3
      [
        Ir.Assign (0, Ir.Bin (Ir.Add, i64 3L, i64 4L));
        Ir.Assign (1, Ir.Bin (Ir.Sub, Ir.Reg 0, i64 7L));
        Ir.Assign (2, Ir.Bin (Ir.Sdiv, i64 100L, Ir.Reg 1));
      ]
      2
  in
  Alcotest.(check int) "fused micro-ops" 3 (fused_ops host);
  (match Interp.run_main host with
  | _ -> Alcotest.fail "expected division-by-zero trap"
  | exception Interp.Trap msg ->
    Alcotest.(check string) "message" "division by zero" msg);
  Alcotest.(check int) "instructions at trap" 3 host.Host.instr_count;
  Alcotest.(check string) "clock at trap" "0x1.b1b0e793f86fep-13"
    (Printf.sprintf "%h" host.Host.clock.Host.now)

let test_float_chain_result () =
  let host =
    one_block_host 4
      [
        Ir.Assign (0, Ir.Cast (Ir.Si_to_fp, Ty.I64, i64 4L, Ty.F64));
        Ir.Assign (1, Ir.Bin (Ir.Fmul, Ir.Reg 0, f64 3.0));
        Ir.Assign (2, Ir.Bin (Ir.Fsub, Ir.Reg 1, f64 2.0));
        Ir.Assign (3, Ir.Cast (Ir.Fp_to_si, Ty.F64, Ir.Reg 2, Ty.I64));
      ]
      3
  in
  Alcotest.(check int) "fused micro-ops" 4 (fused_ops host);
  Alcotest.(check int64) "4 * 3 - 2" 10L (Value.to_int (Interp.run_main host));
  Alcotest.(check int) "instructions" 5 host.Host.instr_count;
  Alcotest.(check string) "clock" "0x1.2d26a9b7f4ce7p-13"
    (Printf.sprintf "%h" host.Host.clock.Host.now)

(* Fused micro-ops against the boxed evaluators, on edge values.  Each
   case is a two-op chain: the operation reads its first operand from a
   register written by an (unfused) bitcast, and a dead add makes the
   run long enough to fuse. *)
let outcome f =
  match f () with
  | Value.VInt v -> Printf.sprintf "int %Ld" v
  | Value.VFloat x -> Printf.sprintf "float %Lx" (Int64.bits_of_float x)
  | exception Interp.Trap msg -> "trap " ^ msg
  | exception Value.Type_trap msg -> "type trap " ^ msg

(* Registers 1.. hold [inputs], each written by a bitcast at its type;
   [rv] and a dead add fuse. *)
let fused_outcome_of inputs rv =
  let n = List.length inputs in
  let host =
    one_block_host (n + 2)
      (List.mapi
         (fun i (ty, a) -> Ir.Assign (i + 1, Ir.Cast (Ir.Bitcast, ty, a, ty)))
         inputs
      @ [ Ir.Assign (0, rv); Ir.Assign (n + 1, Ir.Bin (Ir.Add, i64 0L, i64 0L)) ])
      0
  in
  Alcotest.(check int) "fused micro-ops" 2 (fused_ops host);
  outcome (fun () -> Interp.run_main host)

let fused_outcome ~ty ~a rv = fused_outcome_of [ (ty, a) ] rv

(* Store [a] at [ty] to a stack slot and load it back, fused. *)
let fused_roundtrip ty a =
  let host =
    one_block_host 4
      [
        Ir.Assign (1, Ir.Cast (Ir.Bitcast, ty, a, ty));
        Ir.Assign (3, Ir.Alloca (Ty.F64, 1));
        Ir.Store (ty, Ir.Reg 1, Ir.Reg 3);
        Ir.Assign (0, Ir.Load (ty, Ir.Reg 3));
      ]
      0
  in
  Alcotest.(check int) "fused micro-ops" 2 (fused_ops host);
  outcome (fun () -> Interp.run_main host)

let int_edges =
  [ 0L; 1L; -1L; 7L; -7L; 255L; 0x8000_0000L; Int64.min_int; Int64.max_int ]

let float_edges =
  [ 0.0; -0.0; 1.0; -1.5; 0.1; 2.5; -2.5; 3.4028235e38; 1e39; 1e308;
    -1e308; 5e-324; infinity; neg_infinity; nan ]

let test_fused_matches_boxed () =
  let check what expected ~ty ~a rv =
    Alcotest.(check string) what (outcome expected) (fused_outcome ~ty ~a rv)
  in
  let pairs l = List.concat_map (fun x -> List.map (fun y -> (x, y)) l) l in
  List.iter
    (fun (x, y) ->
      let what = Printf.sprintf "%Ld, %Ld" x y in
      let vx = Value.VInt x and vy = Value.VInt y in
      List.iter
        (fun op ->
          check what
            (fun () -> Interp.eval_binop op vx vy)
            ~ty:Ty.I64 ~a:(i64 x)
            (Ir.Bin (op, Ir.Reg 1, i64 y)))
        Ir.[ Add; Sub; Mul; Sdiv; Udiv; Srem; Urem; And; Or; Xor; Shl;
             Lshr; Ashr ];
      List.iter
        (fun op ->
          check what
            (fun () -> Interp.eval_cmp op vx vy)
            ~ty:Ty.I64 ~a:(i64 x)
            (Ir.Cmp (op, Ir.Reg 1, i64 y)))
        Ir.[ Slt; Sle; Sgt; Sge; Ult; Ule; Ugt; Uge ])
    (pairs int_edges);
  List.iter
    (fun (x, y) ->
      let what = Printf.sprintf "%h, %h" x y in
      let vx = Value.VFloat x and vy = Value.VFloat y in
      List.iter
        (fun op ->
          check what
            (fun () -> Interp.eval_binop op vx vy)
            ~ty:Ty.F64 ~a:(f64 x)
            (Ir.Bin (op, Ir.Reg 1, f64 y)))
        Ir.[ Fadd; Fsub; Fmul; Fdiv ];
      List.iter
        (fun op ->
          check what
            (fun () -> Interp.eval_cmp op vx vy)
            ~ty:Ty.F64 ~a:(f64 x)
            (Ir.Cmp (op, Ir.Reg 1, f64 y)))
        Ir.[ Feq; Fne; Flt; Fle; Fgt; Fge ])
    (pairs float_edges);
  List.iter
    (fun x ->
      check (Printf.sprintf "si_to_fp %Ld" x)
        (fun () -> Interp.eval_cast Ir.Si_to_fp Ty.I64 (Value.VInt x) Ty.F64)
        ~ty:Ty.I64 ~a:(i64 x)
        (Ir.Cast (Ir.Si_to_fp, Ty.I64, Ir.Reg 1, Ty.F64)))
    int_edges;
  List.iter
    (fun x ->
      let what = Printf.sprintf "%h" x in
      List.iter
        (fun (op, dst) ->
          check what
            (fun () -> Interp.eval_cast op Ty.F64 (Value.VFloat x) dst)
            ~ty:Ty.F64 ~a:(f64 x)
            (Ir.Cast (op, Ty.F64, Ir.Reg 1, dst)))
        Ir.
          [ (Fp_to_si, Ty.I64); (Fp_to_si, Ty.I32); (Fp_to_si, Ty.I8);
            (Fp_trunc, Ty.F32) ];
      Alcotest.(check string) ("f64 roundtrip " ^ what)
        (outcome (fun () -> Value.VFloat x))
        (fused_roundtrip Ty.F64 (f64 x));
      Alcotest.(check string) ("f32 roundtrip " ^ what)
        (outcome (fun () ->
             Value.VFloat (Int32.float_of_bits (Int32.bits_of_float x))))
        (fused_roundtrip Ty.F32 (f64 x)))
    float_edges;
  (* Eq/Ne follow [Value.equal]: mixed kinds differ even when the bits
     agree (0 vs 0.0), NaN equals NaN, and 0.0 equals -0.0. *)
  let mixed =
    List.map (fun x -> (Ty.I64, i64 x)) [ 0L; 1L; -1L; Int64.min_int ]
    @ List.map (fun x -> (Ty.F64, f64 x)) [ 0.0; -0.0; 1.0; nan; infinity ]
  in
  let boxed = function
    | Ir.Int (x, _) -> Value.VInt x
    | Ir.Float (x, _) -> Value.VFloat x
    | _ -> assert false
  in
  List.iter
    (fun ((tx, x), (ty, y)) ->
      let what = Fmt.str "%a, %a" Value.pp (boxed x) Value.pp (boxed y) in
      List.iter
        (fun op ->
          let expected () = Interp.eval_cmp op (boxed x) (boxed y) in
          Alcotest.(check string) ("registers " ^ what) (outcome expected)
            (fused_outcome_of [ (tx, x); (ty, y) ]
               (Ir.Cmp (op, Ir.Reg 1, Ir.Reg 2)));
          check ("constant " ^ what) expected ~ty:tx ~a:x
            (Ir.Cmp (op, Ir.Reg 1, y)))
        Ir.[ Eq; Ne ])
    (pairs mixed);
  (* Select reads its condition as an int and copies the chosen slot
     with its kind; a float condition traps. *)
  List.iter
    (fun (tc, c) ->
      List.iter
        (fun (tx, x) ->
          let what = Fmt.str "select %a ? %a" Value.pp (boxed c) Value.pp (boxed x) in
          let expected () =
            if Value.to_bool (boxed c) then boxed x else Value.VInt 7L
          in
          Alcotest.(check string) what (outcome expected)
            (fused_outcome_of [ (tc, c); (tx, x) ]
               (Ir.Select (Ir.Reg 1, Ir.Reg 2, i64 7L))))
        mixed)
    mixed;
  (* A register never written reads as integer 0, fused or boxed. *)
  List.iter
    (fun (what, fused, rv, expected) ->
      let host = one_block_host 3 [ Ir.Assign (0, rv) ] 0 in
      Alcotest.(check int) "fused micro-ops" fused (fused_ops host);
      Alcotest.(check string) ("unwritten register, " ^ what)
        (outcome expected)
        (outcome (fun () -> Interp.run_main host)))
    [
      ( "fused add", 1, Ir.Bin (Ir.Add, Ir.Reg 2, i64 5L),
        fun () -> Interp.eval_binop Ir.Add Value.zero (Value.VInt 5L) );
      ( "fused eq", 1, Ir.Cmp (Ir.Eq, Ir.Reg 2, i64 0L),
        fun () -> Interp.eval_cmp Ir.Eq Value.zero (Value.VInt 0L) );
      ( "fused fadd", 1, Ir.Bin (Ir.Fadd, Ir.Reg 2, f64 1.0),
        fun () -> Interp.eval_binop Ir.Fadd Value.zero (Value.VFloat 1.0) );
      ( "boxed bitcast", 0, Ir.Cast (Ir.Bitcast, Ty.I64, Ir.Reg 2, Ty.I64),
        fun () -> Value.zero );
    ]

(* Golden equivalence: every registry program run locally on every
   architecture (arm32_be keeps its memory ops unfused), digested.
   Any change to the interpreter's fast paths must leave results,
   consoles, instruction counts, clocks and energy bit-identical. *)
let golden_interp_digest = "c69529ca5714a8df7cb497f5b85313d3"

let test_golden_local_runs () =
  let module Registry = No_workloads.Registry in
  let module Local_run = No_runtime.Local_run in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Registry.entry) ->
      List.iter
        (fun (arch : Arch.t) ->
          let r =
            Local_run.run ~arch ~script:e.Registry.e_profile_script
              ~files:e.Registry.e_files (e.Registry.e_build ())
          in
          Buffer.add_string buf
            (Printf.sprintf "%s %s %h %h %d %s %s\n" e.Registry.e_name
               arch.Arch.name r.Local_run.lr_total_s r.Local_run.lr_energy_mj
               r.Local_run.lr_instrs
               (Fmt.str "%a" Value.pp r.Local_run.lr_result)
               (Digest.to_hex (Digest.string r.Local_run.lr_console))))
        Arch.all)
    (Registry.spec @ Registry.synthetic);
  Alcotest.(check string) "local-run digest" golden_interp_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let tests =
  [
    Alcotest.test_case "loop sum" `Quick test_loop_sum;
    Alcotest.test_case "fibonacci recursion" `Quick test_fib;
    Alcotest.test_case "struct + heap" `Quick test_struct_heap;
    Alcotest.test_case "globals" `Quick test_globals;
    Alcotest.test_case "console io" `Quick test_console_io;
    Alcotest.test_case "fn ptr table" `Quick test_fn_ptr_table;
    Alcotest.test_case "clock and ratio" `Quick test_clock_and_ratio;
    Alcotest.test_case "traps" `Quick test_traps;
    Alcotest.test_case "trap: float into int chain" `Quick
      test_trap_float_into_int_chain;
    Alcotest.test_case "trap: float into int chain, exact count and clock"
      `Quick test_trap_float_into_int_exact;
    Alcotest.test_case "trap: int into float chain" `Quick
      test_trap_int_into_float_chain;
    Alcotest.test_case "trap: division by zero in chain" `Quick
      test_trap_div_zero_in_chain;
    Alcotest.test_case "float chain result" `Quick test_float_chain_result;
    Alcotest.test_case "fused ops match boxed on edge values" `Quick
      test_fused_matches_boxed;
    Alcotest.test_case "golden local-run digest" `Slow test_golden_local_runs;
  ]
