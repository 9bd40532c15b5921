open Relation

exception Parse_error of string * int

type algebra_op = {
  op : Expr.binop;
  operand : Expr.t;
}

type gather_fn =
  | Gather_sum
  | Gather_min
  | Gather_max
  | Gather_count

type program = {
  gather : gather_fn;
  apply : algebra_op list;
  scatter : algebra_op list;
  iterations : int;
}

(* ---------------- parsing ---------------- *)

let binop_of_name ps name =
  match String.lowercase_ascii name with
  | "sum" -> Expr.Add
  | "sub" -> Expr.Sub
  | "mul" -> Expr.Mul
  | "div" -> Expr.Div
  | _ -> Parse_state.fail ps "unknown column operator %s" name

let parse_algebra_ops ps =
  (* OP [vertex_value, operand] ... until '}' *)
  let rec go acc =
    match Parse_state.peek ps with
    | Lexer.Punct "}" -> List.rev acc
    | Lexer.Ident name ->
      ignore (Parse_state.advance ps);
      let op = binop_of_name ps name in
      Parse_state.expect_punct ps "[";
      let target = Parse_state.ident ps in
      if String.lowercase_ascii target <> "vertex_value"
         && String.lowercase_ascii target <> "iteration" then
        Parse_state.fail ps
          "column algebra must target vertex_value, got %s" target;
      Parse_state.expect_punct ps ",";
      let operand = Parse_state.expr ps in
      Parse_state.expect_punct ps "]";
      go ({ op; operand } :: acc)
    | tok ->
      Parse_state.fail ps "expected column operator, found %s"
        (Lexer.token_to_string tok)
  in
  go []

let parse_gather ps =
  let fn_name = Parse_state.ident ps in
  Parse_state.expect_punct ps "(";
  let col = Parse_state.ident ps in
  if String.lowercase_ascii col <> "vertex_value" then
    Parse_state.fail ps "GATHER aggregates vertex_value, got %s" col;
  Parse_state.expect_punct ps ")";
  match String.lowercase_ascii fn_name with
  | "sum" -> Gather_sum
  | "min" -> Gather_min
  | "max" -> Gather_max
  | "count" -> Gather_count
  | _ -> Parse_state.fail ps "unknown gather function %s" fn_name

let parse source =
  try
    let ps = Parse_state.of_string source in
    let gather = ref None
    and apply = ref []
    and scatter = ref []
    and iterations = ref None in
    let rec sections () =
      match Parse_state.peek ps with
      | Lexer.Eof -> ()
      | Lexer.Ident section ->
        ignore (Parse_state.advance ps);
        Parse_state.expect_punct ps "=";
        (match String.lowercase_ascii section with
         | "gather" ->
           Parse_state.expect_punct ps "{";
           gather := Some (parse_gather ps);
           Parse_state.expect_punct ps "}"
         | "apply" ->
           Parse_state.expect_punct ps "{";
           apply := parse_algebra_ops ps;
           Parse_state.expect_punct ps "}"
         | "scatter" ->
           Parse_state.expect_punct ps "{";
           scatter := parse_algebra_ops ps;
           Parse_state.expect_punct ps "}"
         | "iteration_stop" ->
           Parse_state.expect_punct ps "(";
           Parse_state.expect_kw ps "iteration";
           Parse_state.expect_punct ps "<";
           (match Parse_state.advance ps with
            | Lexer.Int_lit n -> iterations := Some n
            | tok ->
              Parse_state.fail ps "expected iteration bound, found %s"
                (Lexer.token_to_string tok));
           Parse_state.expect_punct ps ")"
         | "iteration" ->
           (* the loop-counter increment; implied by ITERATION_STOP *)
           Parse_state.expect_punct ps "{";
           ignore (parse_algebra_ops ps);
           Parse_state.expect_punct ps "}"
         | _ -> Parse_state.fail ps "unknown GAS section %s" section);
        sections ()
      | tok ->
        Parse_state.fail ps "expected GAS section, found %s"
          (Lexer.token_to_string tok)
    in
    sections ();
    match !gather, !iterations with
    | None, _ -> raise (Parse_error ("missing GATHER section", 0))
    | _, None -> raise (Parse_error ("missing ITERATION_STOP section", 0))
    | Some gather, Some iterations ->
      { gather; apply = !apply; scatter = !scatter; iterations }
  with
  | Parse_state.Parse_error (msg, line) -> raise (Parse_error (msg, line))
  | Ir.Dag.Invalid msg -> raise (Parse_error (msg, 0))

(* ---------------- vertex-centric -> dataflow ---------------- *)

let algebra_expr ~target ops =
  List.fold_left
    (fun acc { op; operand } -> Expr.Binop (op, acc, operand))
    (Expr.col target) ops

let body_graph p ~vertices ~edges =
  let body_b = Ir.Builder.create () in
  let vtx = Ir.Builder.input body_b vertices in
  let edg = Ir.Builder.input body_b edges in
  (* scatter: send state along out-edges, transformed per SCATTER *)
  let joined =
    Ir.Builder.join body_b ~left_key:"src" ~right_key:"id" edg vtx
  in
  let msg_expr = algebra_expr ~target:"vertex_value" p.scatter in
  let with_msg =
    Ir.Builder.map body_b ~target:"msg" ~expr:msg_expr joined
  in
  let messages =
    Ir.Builder.project body_b ~columns:[ "dst"; "msg" ] with_msg
  in
  (* gather: aggregate incoming messages per destination vertex *)
  let agg_fn =
    match p.gather with
    | Gather_sum -> Aggregate.Sum "msg"
    | Gather_min -> Aggregate.Min "msg"
    | Gather_max -> Aggregate.Max "msg"
    | Gather_count -> Aggregate.Count
  in
  let gathered =
    Ir.Builder.group_by body_b ~keys:[ "dst" ]
      ~aggs:[ Aggregate.make agg_fn ~as_name:"recv" ]
      messages
  in
  (* vertices that received messages *)
  let matched =
    Ir.Builder.join body_b ~left_key:"id" ~right_key:"dst" vtx gathered
  in
  (* vertices with no in-messages keep a 0-valued gather *)
  let all_ids = Ir.Builder.project body_b ~columns:[ "id" ] vtx in
  let msg_ids0 = Ir.Builder.project body_b ~columns:[ "dst" ] gathered in
  let msg_ids1 =
    Ir.Builder.map body_b ~target:"id" ~expr:(Expr.col "dst") msg_ids0
  in
  let msg_ids = Ir.Builder.project body_b ~columns:[ "id" ] msg_ids1 in
  let missing_ids = Ir.Builder.difference body_b all_ids msg_ids in
  let missing =
    Ir.Builder.join body_b ~left_key:"id" ~right_key:"id" vtx missing_ids
  in
  let zero_recv =
    match p.gather with
    | Gather_count -> Expr.int 0
    | Gather_sum | Gather_min | Gather_max -> Expr.float 0.
  in
  let missing_recv =
    Ir.Builder.map body_b ~target:"recv" ~expr:zero_recv missing
  in
  let gathered_all = Ir.Builder.union body_b matched missing_recv in
  (* apply: vertex_value := gathered, then the APPLY algebra *)
  let applied0 =
    Ir.Builder.map body_b ~target:"vertex_value" ~expr:(Expr.col "recv")
      gathered_all
  in
  let applied =
    Ir.Builder.map body_b ~target:"vertex_value"
      ~expr:(algebra_expr ~target:"vertex_value" p.apply)
      applied0
  in
  let next =
    Ir.Builder.project body_b ~name:vertices
      ~columns:[ "id"; "vertex_value"; "vertex_degree" ]
      applied
  in
  Ir.Builder.finish_body body_b ~carried:[ (vertices, next) ]

let to_dataflow p ~vertices ~edges =
  let body = body_graph p ~vertices ~edges in
  let b = Ir.Builder.create () in
  let v0 = Ir.Builder.input b vertices in
  let e0 = Ir.Builder.input b edges in
  let loop =
    Ir.Builder.while_ b
      ~name:(vertices ^ "_final")
      ~condition:(Ir.Operator.Fixed_iterations p.iterations)
      ~max_iterations:(p.iterations + 1)
      ~body [ v0; e0 ]
  in
  Ir.Builder.finish b ~outputs:[ loop ]

let parse_to_graph source ~vertices ~edges =
  Obs.Trace.with_span
    ~attrs:[ ("lang", Obs.Trace.String "gas");
             ("bytes", Obs.Trace.Int (String.length source)) ]
    "frontend.parse"
  @@ fun () -> to_dataflow (parse source) ~vertices ~edges
