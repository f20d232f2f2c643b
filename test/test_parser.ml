(* IR parser tests: hand-written sources, error reporting, and the
   pretty-printer round trip over every workload module — parsing the
   printed form of a module must reproduce a module that validates and
   prints identically. *)

module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Parser = No_ir.Parser
module Pretty = No_ir.Pretty
module Validate = No_ir.Validate
module Registry = No_workloads.Registry

let test_parse_minimal () =
  let src =
    {|
# a comment
module tiny
struct %Pair { a: i8; b: f64 }
global @answer : i64 = 42:i64
global @table : [2 x i64(i64)*] = {&double_it, &double_it}
fn double_it(%r0:i64) -> i64 {
entry:
  %r1 = mul %r0, 2:i64
  ret %r1
}
fn main() -> i64 {
entry:
  %r0 = load i64, @answer
  %r1 = call double_it(%r0)
  ret %r1
}
|}
  in
  let m = Parser.parse src in
  Validate.check_module m;
  Alcotest.(check string) "name" "tiny" m.Ir.m_name;
  Alcotest.(check int) "structs" 1 (List.length m.Ir.m_structs);
  Alcotest.(check int) "globals" 2 (List.length m.Ir.m_globals);
  Alcotest.(check int) "functions" 2 (List.length m.Ir.m_funcs);
  let f = Ir.find_func_exn m "double_it" in
  Alcotest.(check int) "nregs" 2 f.Ir.f_nregs

let test_parse_control_flow () =
  let src =
    {|
module cf
fn classify(%r0:i64) -> i64 {
entry:
  switch %r0 [1 -> one; 2 -> two] default other
one:
  ret 100:i64
two:
  %r1 = cmp sgt %r0, 0:i64
  cbr %r1, one, other
other:
  unreachable
}
|}
  in
  let m = Parser.parse src in
  Validate.check_module m;
  let f = Ir.find_func_exn m "classify" in
  Alcotest.(check int) "blocks" 4 (List.length f.Ir.f_blocks)

let test_parse_errors () =
  let expect_error src =
    match Parser.parse src with
    | _ -> Alcotest.fail "expected parse error"
    | exception Parser.Parse_error (line, _) ->
      Alcotest.(check bool) "line number positive" true (line > 0)
  in
  expect_error "nonsense line";
  expect_error "module m\nfn f() -> i64 {\nentry:\n  ret 1:i64\n";
  (* unterminated fn *)
  expect_error "module m\nfn f() -> i64 {\n  %r0 = add 1:i64, 2:i64\n}\n";
  (* instr outside block *)
  let expect_error_at line src =
    match Parser.parse src with
    | _ -> Alcotest.fail "expected parse error"
    | exception Parser.Parse_error (l, _) ->
      Alcotest.(check int) "error line" line l
  in
  expect_error_at 4
    "module m\nfn f() -> i64 {\nentry:\n  ret 99999999999999999999:i64\n}\n";
  (* out-of-range i64 literal *)
  expect_error_at 2 "module m\nglobal @g : [99999999999999999999 x i8] = zero\n";
  (* overlong array length *)
  expect_error_at 4
    "module m\nfn f() -> i64 {\nentry:\n  ret 2e:i64\n}\n"
  (* malformed integer literal *)

(* Seeded single-byte mutants of a real program: each one parses or
   fails with [Parse_error] — no stray [Failure] or [Invalid_argument]. *)
let primes_source =
  lazy
    (let path =
       List.find Sys.file_exists
         [ "../examples/programs/primes.ir"; "examples/programs/primes.ir" ]
     in
     In_channel.with_open_bin path In_channel.input_all)

let prop_mutants_fail_cleanly =
  let mutant =
    QCheck.Gen.(
      pair nat
        (oneof [ char; oneofl [ '0'; '9'; 'x'; 'e'; 'f'; 'a'; 'n'; '-'; '.' ] ]))
  in
  QCheck.Test.make ~name:"primes.ir mutants fail only with Parse_error"
    ~count:5000
    (QCheck.make
       ~print:(fun (pos, ch) -> Printf.sprintf "byte %d (mod length) := %C" pos ch)
       mutant)
    (fun (pos, ch) ->
      let text = Bytes.of_string (Lazy.force primes_source) in
      Bytes.set text (pos mod Bytes.length text) ch;
      match Parser.parse (Bytes.to_string text) with
      | _ -> true
      | exception Parser.Parse_error _ -> true)

let roundtrip (m : Ir.modul) =
  let printed = Pretty.modul_to_string m in
  let reparsed =
    try Parser.parse printed
    with Parser.Parse_error (line, msg) ->
      Alcotest.failf "%s: parse error at line %d: %s\n--- around:\n%s"
        m.Ir.m_name line msg
        (let lines = String.split_on_char '\n' printed in
         String.concat "\n"
           (List.filteri (fun i _ -> i >= line - 3 && i <= line + 1) lines))
  in
  Validate.check_module reparsed;
  let reprinted = Pretty.modul_to_string reparsed in
  Alcotest.(check string) (m.Ir.m_name ^ " fixpoint") printed reprinted

let test_roundtrip_workloads () =
  List.iter
    (fun (e : Registry.entry) -> roundtrip (e.Registry.e_build ()))
    Registry.spec;
  roundtrip (No_workloads.Chess.build ())

let tests =
  [
    Alcotest.test_case "parse minimal" `Quick test_parse_minimal;
    Alcotest.test_case "parse control flow" `Quick test_parse_control_flow;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2015 |])
      prop_mutants_fail_cleanly;
    Alcotest.test_case "roundtrip all workloads" `Quick
      test_roundtrip_workloads;
  ]
