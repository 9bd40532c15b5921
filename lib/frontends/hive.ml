open Relation

exception Parse_error of string * int

type select_item =
  | Plain of string
  | Aggregated of Aggregate.t

let agg_keywords = [ "max"; "min"; "sum"; "avg"; "count" ]

let parse_select_item ps =
  match Parse_state.peek ps, Parse_state.peek2 ps with
  | Lexer.Ident fn, Lexer.Punct "("
    when List.mem (String.lowercase_ascii fn) agg_keywords ->
    ignore (Parse_state.advance ps);
    Parse_state.expect_punct ps "(";
    let column =
      match Parse_state.advance ps with
      | Lexer.Ident c -> c
      | Lexer.Qualified (_, c) -> c
      | Lexer.Punct "*" -> "*"
      | tok ->
        Parse_state.fail ps "expected column in aggregate, found %s"
          (Lexer.token_to_string tok)
    in
    Parse_state.expect_punct ps ")";
    let default_name = String.lowercase_ascii fn ^ "_" ^ column in
    let as_name =
      if Parse_state.accept_kw ps "as" then Parse_state.ident ps
      else if column = "*" then String.lowercase_ascii fn
      else default_name
    in
    let fn =
      match String.lowercase_ascii fn with
      | "max" -> Aggregate.Max column
      | "min" -> Aggregate.Min column
      | "sum" -> Aggregate.Sum column
      | "avg" -> Aggregate.Avg column
      | "count" -> Aggregate.Count
      | _ -> assert false
    in
    Aggregated (Aggregate.make fn ~as_name)
  | Lexer.Qualified (_, column), _ ->
    ignore (Parse_state.advance ps);
    Plain column
  | Lexer.Ident column, _ ->
    ignore (Parse_state.advance ps);
    Plain column
  | tok, _ ->
    Parse_state.fail ps "expected select item, found %s"
      (Lexer.token_to_string tok)

type env = {
  builder : Ir.Builder.t;
  mutable relations : (string * Ir.Builder.handle) list;
  mutable consumed : string list;
}

let resolve env name =
  match List.assoc_opt name env.relations with
  | Some handle ->
    env.consumed <- name :: env.consumed;
    handle
  | None ->
    (* unknown name: an HDFS relation *)
    let handle = Ir.Builder.input env.builder name in
    env.relations <- (name, handle) :: env.relations;
    env.consumed <- name :: env.consumed;
    handle

let define env name handle =
  env.relations <- (name, handle) :: env.relations

let parse_group_keys ps =
  let rec go acc =
    let key =
      match Parse_state.advance ps with
      | Lexer.Ident c -> c
      | Lexer.Qualified (_, c) -> c
      | tok ->
        Parse_state.fail ps "expected group-by column, found %s"
          (Lexer.token_to_string tok)
    in
    if Parse_state.accept_kw ps "and" || Parse_state.accept_punct ps "," then
      go (key :: acc)
    else List.rev (key :: acc)
  in
  go []

let parse_select_statement ps env =
  Parse_state.expect_kw ps "select";
  let rec items acc =
    let item = parse_select_item ps in
    if Parse_state.accept_punct ps "," then items (item :: acc)
    else List.rev (item :: acc)
  in
  let select_list = items [] in
  Parse_state.expect_kw ps "from";
  let source = Parse_state.ident ps in
  let handle = resolve env source in
  let handle =
    if Parse_state.accept_kw ps "where" then
      Ir.Builder.select env.builder ~pred:(Parse_state.expr ps) handle
    else handle
  in
  let group_keys =
    if Parse_state.accept_kw ps "group" then begin
      Parse_state.expect_kw ps "by";
      Some (parse_group_keys ps)
    end
    else None
  in
  let having =
    if Parse_state.accept_kw ps "having" then Some (Parse_state.expr ps)
    else None
  in
  Parse_state.expect_kw ps "as";
  let name = Parse_state.ident ps in
  let aggs =
    List.filter_map
      (function Aggregated a -> Some a | Plain _ -> None)
      select_list
  and plain =
    List.filter_map
      (function Plain c -> Some c | Aggregated _ -> None)
      select_list
  in
  let grouped =
    match group_keys, aggs with
    | Some keys, _ ->
      Ir.Builder.group_by env.builder
        ?name:(if having = None then Some name else None)
        ~keys ~aggs handle
    | None, [] ->
      Ir.Builder.project env.builder
        ?name:(if having = None then Some name else None)
        ~columns:plain handle
    | None, _ ->
      Ir.Builder.agg env.builder
        ?name:(if having = None then Some name else None)
        ~aggs handle
  in
  let result =
    match having with
    | Some pred -> Ir.Builder.select env.builder ~name ~pred grouped
    | None -> grouped
  in
  define env name result

let parse_join_or_setop ps env left_name =
  let left = resolve env left_name in
  if Parse_state.accept_kw ps "join" then begin
    let right_name = Parse_state.ident ps in
    let right = resolve env right_name in
    Parse_state.expect_kw ps "on";
    let key ps =
      match Parse_state.advance ps with
      | Lexer.Qualified (_, c) -> c
      | Lexer.Ident c -> c
      | tok ->
        Parse_state.fail ps "expected join key, found %s"
          (Lexer.token_to_string tok)
    in
    let left_key = key ps in
    Parse_state.expect_punct ps "=";
    let right_key = key ps in
    Parse_state.expect_kw ps "as";
    let name = Parse_state.ident ps in
    define env name
      (Ir.Builder.join env.builder ~name ~left_key ~right_key left right)
  end
  else begin
    let op =
      if Parse_state.accept_kw ps "union" then `Union
      else if Parse_state.accept_kw ps "intersect" then `Intersect
      else if Parse_state.accept_kw ps "except" then `Difference
      else
        Parse_state.fail ps "expected JOIN/UNION/INTERSECT/EXCEPT after %s"
          left_name
    in
    let right = resolve env (Parse_state.ident ps) in
    Parse_state.expect_kw ps "as";
    let name = Parse_state.ident ps in
    let handle =
      match op with
      | `Union -> Ir.Builder.union env.builder ~name left right
      | `Intersect -> Ir.Builder.intersect env.builder ~name left right
      | `Difference -> Ir.Builder.difference env.builder ~name left right
    in
    define env name handle
  end

let parse source =
  Obs.Trace.with_span
    ~attrs:[ ("lang", Obs.Trace.String "hive");
             ("bytes", Obs.Trace.Int (String.length source)) ]
    "frontend.parse"
  @@ fun () ->
  try
    let ps = Parse_state.of_string source in
    let env = { builder = Ir.Builder.create (); relations = []; consumed = [] } in
    let rec statements () =
      match Parse_state.peek ps with
      | Lexer.Eof -> ()
      | Lexer.Punct ";" ->
        ignore (Parse_state.advance ps);
        statements ()
      | tok when Lexer.is_keyword tok "select" ->
        parse_select_statement ps env;
        statements ()
      | Lexer.Ident left_name ->
        ignore (Parse_state.advance ps);
        parse_join_or_setop ps env left_name;
        statements ()
      | tok ->
        Parse_state.fail ps "unexpected %s" (Lexer.token_to_string tok)
    in
    statements ();
    (* outputs: defined relations never consumed *)
    let outputs =
      List.filter
        (fun (name, _) -> not (List.mem name env.consumed))
        env.relations
    in
    let outputs = if outputs = [] then [ List.hd env.relations ] else outputs in
    Ir.Builder.finish env.builder ~outputs:(List.rev_map snd outputs)
  with
  | Parse_state.Parse_error (msg, line) -> raise (Parse_error (msg, line))
  | Ir.Dag.Invalid msg -> raise (Parse_error (msg, 0))
