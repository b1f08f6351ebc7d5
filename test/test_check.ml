(* Static checks of section 4.7: the type-rule tables (1), (2), (3) —
   experiment E7 — plus single-assignment discipline, combinational-loop
   detection, the unused-port rule and SEQUENTIAL order checking. *)

open Zeus

let diags_of src =
  let _, diags = elaborate_with_diags src in
  diags

let errors_of src =
  List.filter (fun (d : Diag.t) -> d.Diag.severity = Diag.Error) (diags_of src)

let legal name src =
  match errors_of src with
  | [] -> ()
  | errs -> Alcotest.failf "%s: expected legal, got %a" name Fmt.(list Diag.pp) errs

let illegal name src =
  match errors_of src with
  | [] -> Alcotest.failf "%s: expected an error" name
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Type rules (1): conditional assignment  IF b THEN x := e END         *)
(*                                                                      *)
(*    x \ e      boolean       multiplex                                *)
(*    boolean    illegal[*]    illegal[*]                               *)
(*    multiplex  legal         legal                                    *)
(*    [*] exception 1: x is a formal OUT parameter or an IN parameter  *)
(*        of an instantiated component                                  *)
(* ------------------------------------------------------------------ *)

(* a local signal [x] of the given kind conditionally assigned from a
   source of the given kind *)
let cond_assign ~target ~source =
  Printf.sprintf
    "TYPE t = COMPONENT (IN b: boolean; IN eb: boolean; em: multiplex; OUT \
     y: boolean) IS SIGNAL x: %s; BEGIN IF b THEN x := %s END; y := x END; \
     SIGNAL s: t;"
    target
    (match source with "boolean" -> "eb" | _ -> "em")

let test_rules1_local () =
  illegal "bool := bool cond" (cond_assign ~target:"boolean" ~source:"boolean");
  illegal "bool := mux cond" (cond_assign ~target:"boolean" ~source:"multiplex");
  legal "mux := bool cond" (cond_assign ~target:"multiplex" ~source:"boolean");
  legal "mux := mux cond" (cond_assign ~target:"multiplex" ~source:"multiplex")

let test_rules1_exception1_formal_out () =
  (* conditional assignment to a boolean formal OUT parameter is the
     exception the report motivates at length *)
  legal "formal OUT exception"
    "TYPE t = COMPONENT (IN b,c: boolean; OUT y: boolean) IS BEGIN IF b \
     THEN y := c END END; SIGNAL s: t;"

let test_rules1_exception1_instance_in () =
  legal "instance IN exception"
    "TYPE r = COMPONENT (IN a: boolean; OUT z: boolean) IS BEGIN z := NOT a \
     END; t = COMPONENT (IN b,c: boolean; OUT y: boolean) IS SIGNAL i: r; \
     BEGIN IF b THEN i.a := c END; y := i.z END; SIGNAL s: t;"

(* ------------------------------------------------------------------ *)
(* Unconditional assignment: all four combinations legal, but only one  *)
(* assignment ever — except both-multiplex, which must use '=='         *)
(* ------------------------------------------------------------------ *)

let test_uncond_combinations () =
  legal "bool := bool"
    "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS SIGNAL x: \
     boolean; BEGIN x := a; y := x END; SIGNAL s: t;";
  legal "mux := bool"
    "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS SIGNAL x: \
     multiplex; BEGIN x := a; y := x END; SIGNAL s: t;";
  legal "bool := mux"
    "TYPE t = COMPONENT (IN a: boolean; em: multiplex; OUT y: boolean) IS \
     SIGNAL x: boolean; BEGIN x := em; y := AND(a,x) END; SIGNAL s: t;";
  illegal "mux := mux needs =="
    "TYPE t = COMPONENT (em,fm: multiplex; IN a: boolean) IS BEGIN em := fm \
     END; SIGNAL s: t;"

let test_double_unconditional () =
  (* x:=1; x:=0 would connect power to ground *)
  illegal "double drive"
    "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS SIGNAL x: \
     boolean; BEGIN x := 1; x := 0; y := x END; SIGNAL s: t;"

let test_mixed_cond_uncond () =
  (* "A variable may not be assigned conditionally and unconditionally" *)
  illegal "mixed"
    "TYPE t = COMPONENT (IN b: boolean; OUT y: boolean) IS SIGNAL x: \
     multiplex; BEGIN x := 1; IF b THEN x := 0 END; y := x END; SIGNAL s: t;"

(* ------------------------------------------------------------------ *)
(* Type rules (2): aliasing x == y                                      *)
(*    bool == bool   illegal                                            *)
(*    bool == mux    illegal unless the boolean is exception 1          *)
(*    mux == mux     legal                                              *)
(* ------------------------------------------------------------------ *)

let test_rules2 () =
  legal "mux == mux"
    "TYPE t = COMPONENT (em,fm: multiplex; IN a: boolean) IS BEGIN em == fm; \
     IF a THEN em := 1 END END; SIGNAL s: t;";
  illegal "bool == bool"
    "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS SIGNAL u,v: \
     boolean; BEGIN u := a; u == v; y := v END; SIGNAL s: t;";
  illegal "local bool == mux"
    "TYPE t = COMPONENT (em: multiplex; IN a: boolean; OUT y: boolean) IS \
     SIGNAL u: boolean; BEGIN u == em; y := u END; SIGNAL s: t;";
  legal "formal OUT bool == mux (exception 1)"
    "TYPE t = COMPONENT (em: multiplex; IN a: boolean; OUT y: boolean) IS \
     BEGIN y == em; IF a THEN em := 1 END END; SIGNAL s: t;"

let test_alias_in_if () =
  illegal "alias under IF"
    "TYPE t = COMPONENT (em,fm: multiplex; IN a: boolean) IS BEGIN IF a \
     THEN em == fm END END; SIGNAL s: t;"

let test_alias_plus_uncond_bool () =
  (* a boolean assigned with '==' may not also be assigned with ':=' *)
  illegal "aliased bool with :="
    "TYPE r = COMPONENT (IN a: boolean; OUT z: boolean) IS BEGIN z := NOT a \
     END; t = COMPONENT (em: multiplex; IN b: boolean; OUT y: boolean) IS \
     SIGNAL i: r; BEGIN i.a == em; i.a := b; y := i.z END; SIGNAL s: t;"

(* ------------------------------------------------------------------ *)
(* Feedback loops: only through REG (section 3.2 / 8)                   *)
(* ------------------------------------------------------------------ *)

let test_combinational_cycle () =
  let errs =
    errors_of
      "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS SIGNAL u,v: \
       boolean; BEGIN u := AND(a,v); v := NOT u; y := v END; SIGNAL s: t;"
  in
  Alcotest.(check bool) "cycle reported" true
    (List.exists (fun (d : Diag.t) -> d.Diag.kind = Diag.Cycle_error) errs)

let test_cycle_through_reg_ok () =
  legal "loop through REG"
    "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS SIGNAL r: REG; \
     BEGIN r.in := XOR(a,r.out); y := r.out END; SIGNAL s: t;"

let test_self_cycle () =
  let errs =
    errors_of
      "TYPE t = COMPONENT (IN b: boolean; x: multiplex) IS BEGIN IF b THEN \
       x := NOT x END END; SIGNAL s: t;"
  in
  Alcotest.(check bool) "self loop reported" true
    (List.exists (fun (d : Diag.t) -> d.Diag.kind = Diag.Cycle_error) errs)

(* ------------------------------------------------------------------ *)
(* Unused ports (section 4.1)                                           *)
(* ------------------------------------------------------------------ *)

let test_unused_port () =
  let errs =
    errors_of
      "TYPE r = COMPONENT (IN a: boolean; OUT b,c: boolean) IS BEGIN b := \
       NOT a; c := a END; t = COMPONENT (IN x: boolean; OUT y: boolean) IS \
       SIGNAL i: r; BEGIN i.a := x; y := i.b END; SIGNAL s: t;"
  in
  Alcotest.(check bool) "unused port reported" true
    (List.exists (fun (d : Diag.t) -> d.Diag.kind = Diag.Port_error) errs)

let test_unused_port_closed_with_star () =
  legal "closed with star"
    "TYPE r = COMPONENT (IN a: boolean; OUT b,c: boolean) IS BEGIN b := NOT \
     a; c := a END; t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL \
     i: r; BEGIN i(x,y,*) END; SIGNAL s: t;"

let test_fully_disconnected_ok () =
  (* "it is legal to have completely disconnected components" *)
  legal "disconnected instance"
    "TYPE r = COMPONENT (IN a: boolean; OUT b: boolean) IS BEGIN b := NOT a \
     END; t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL i: r; \
     BEGIN y := NOT x END; SIGNAL s: t;"

(* ------------------------------------------------------------------ *)
(* SEQUENTIAL / PARALLEL (section 4.5)                                  *)
(* ------------------------------------------------------------------ *)

let test_sequential_compatible () =
  legal "correct order"
    "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS SIGNAL u: \
     boolean; BEGIN SEQUENTIAL u := NOT a; y := NOT u END END; SIGNAL s: t;"

let test_sequential_incompatible () =
  let errs =
    errors_of
      "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS SIGNAL u: \
       boolean; BEGIN SEQUENTIAL y := NOT u; u := NOT a END END; SIGNAL s: \
       t;"
  in
  Alcotest.(check bool) "order violation" true
    (List.exists (fun (d : Diag.t) -> d.Diag.kind = Diag.Order_error) errs)

let test_for_sequentially () =
  legal "ripple order"
    "TYPE t = COMPONENT (IN a: ARRAY[1..4] OF boolean; OUT y: boolean) IS \
     SIGNAL h: ARRAY[1..5] OF boolean; BEGIN SEQUENTIAL h[1] := a[1]; FOR i \
     := 2 TO 4 DO SEQUENTIALLY h[i] := AND(h[i-1],a[i]); END; y := h[4] END \
     END; SIGNAL s: t;"

let test_parallel_neutralizes () =
  (* PARALLEL groups statements into one unit: no constraint between its
     members *)
  legal "parallel inside sequential"
    "TYPE t = COMPONENT (IN a: boolean; OUT y,z: boolean) IS SIGNAL u,v: \
     boolean; BEGIN SEQUENTIAL PARALLEL u := NOT a; v := NOT a END; y := \
     AND(u,v); z := v END END; SIGNAL s: t;"

(* ------------------------------------------------------------------ *)
(* Warnings                                                             *)
(* ------------------------------------------------------------------ *)

let test_undriven_warning () =
  let diags =
    diags_of
      "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS SIGNAL u: \
       boolean; BEGIN y := AND(a,u) END; SIGNAL s: t;"
  in
  Alcotest.(check bool) "undriven read warns" true
    (List.exists
       (fun (d : Diag.t) ->
         d.Diag.severity = Diag.Warning && d.Diag.kind = Diag.Assign_error)
       diags)

(* per-class diagnostics come out in ascending union-find-root order
   (declaration order here), not in hash-table order *)
let test_undriven_order () =
  let names =
    List.filter_map
      (fun (d : Diag.t) ->
        if d.Diag.code = Some Diag.Code.undriven_read then
          Some (String.sub d.Diag.message 1 3)
        else None)
      (diags_of
         "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS SIGNAL p, q, \
          r, u, v, w: boolean; BEGIN p := a; q := a; r := a; y := AND(p, q, r, \
          u, v, w) END; SIGNAL s: t;")
  in
  Alcotest.(check (list string)) "Z201 order" [ "s.u"; "s.v"; "s.w" ] names

(* the corpus passes all static checks *)
let test_corpus_clean () =
  List.iter
    (fun (name, src) ->
      match errors_of src with
      | [] -> ()
      | errs ->
          Alcotest.failf "%s: %a" name Fmt.(list Diag.pp) errs)
    Corpus.all_named

let () =
  Alcotest.run "check"
    [
      ( "type_rules_1",
        [
          Alcotest.test_case "local matrix" `Quick test_rules1_local;
          Alcotest.test_case "exception1 formal OUT" `Quick
            test_rules1_exception1_formal_out;
          Alcotest.test_case "exception1 instance IN" `Quick
            test_rules1_exception1_instance_in;
        ] );
      ( "unconditional",
        [
          Alcotest.test_case "combinations" `Quick test_uncond_combinations;
          Alcotest.test_case "double drive" `Quick test_double_unconditional;
          Alcotest.test_case "mixed cond/uncond" `Quick test_mixed_cond_uncond;
        ] );
      ( "type_rules_2",
        [
          Alcotest.test_case "alias matrix" `Quick test_rules2;
          Alcotest.test_case "alias in IF" `Quick test_alias_in_if;
          Alcotest.test_case "aliased bool :=" `Quick
            test_alias_plus_uncond_bool;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "combinational cycle" `Quick
            test_combinational_cycle;
          Alcotest.test_case "through REG ok" `Quick test_cycle_through_reg_ok;
          Alcotest.test_case "self cycle" `Quick test_self_cycle;
        ] );
      ( "ports",
        [
          Alcotest.test_case "unused port" `Quick test_unused_port;
          Alcotest.test_case "closed with star" `Quick
            test_unused_port_closed_with_star;
          Alcotest.test_case "disconnected ok" `Quick
            test_fully_disconnected_ok;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "compatible" `Quick test_sequential_compatible;
          Alcotest.test_case "incompatible" `Quick
            test_sequential_incompatible;
          Alcotest.test_case "for sequentially" `Quick test_for_sequentially;
          Alcotest.test_case "parallel" `Quick test_parallel_neutralizes;
        ] );
      ( "warnings",
        [
          Alcotest.test_case "undriven" `Quick test_undriven_warning;
          Alcotest.test_case "undriven order" `Quick test_undriven_order;
        ] );
      ( "corpus", [ Alcotest.test_case "clean" `Quick test_corpus_clean ] );
    ]
