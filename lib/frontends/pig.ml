open Relation

exception Parse_error of string * int

(* a bound relation name is either materialized in the IR or a pending
   GROUP awaiting its aggregating FOREACH (Pig's two-step idiom) *)
type binding =
  | Plain of Ir.Builder.handle
  | Grouped of { source : Ir.Builder.handle; keys : string list }

type env = {
  builder : Ir.Builder.t;
  mutable bindings : (string * binding) list;
  mutable stored : (string * Ir.Builder.handle) list;
  (* relation -> (sort column, descending): LIMIT keeps the top of the
     most recent ORDER BY *)
  mutable sort_hints : (string * (string * bool)) list;
}

let elab_error fmt = Printf.ksprintf (fun s -> raise (Parse_error (s, 0))) fmt

let resolve env name =
  match List.assoc_opt name env.bindings with
  | Some b -> b
  | None -> elab_error "unknown relation %S" name

let plain env name =
  match resolve env name with
  | Plain h -> h
  | Grouped _ ->
    elab_error
      "relation %S is GROUPed; aggregate it with FOREACH ... GENERATE \
       group, FN(...)"
      name

let bind env name b = env.bindings <- (name, b) :: env.bindings

(* ---------------- parsing ---------------- *)

let agg_keywords = [ "sum"; "min"; "max"; "avg"; "count" ]

let column ps =
  match Parse_state.advance ps with
  | Lexer.Ident c -> c
  | Lexer.Qualified (_, c) -> c
  | tok ->
    Parse_state.fail ps "expected column, found %s" (Lexer.token_to_string tok)

type gen_item =
  | Gen_group
  | Gen_col of string * string option
  | Gen_agg of Aggregate.t
  | Gen_expr of Expr.t * string

let agg_fn ps name col =
  match String.lowercase_ascii name with
  | "sum" -> Aggregate.Sum col
  | "min" -> Aggregate.Min col
  | "max" -> Aggregate.Max col
  | "avg" -> Aggregate.Avg col
  | "count" -> Aggregate.Count
  | _ -> Parse_state.fail ps "unknown aggregate %s" name

let parse_gen_item ps =
  match Parse_state.peek ps, Parse_state.peek2 ps with
  | tok, _ when Lexer.is_keyword tok "group" ->
    ignore (Parse_state.advance ps);
    Gen_group
  | Lexer.Ident fn, Lexer.Punct "("
    when List.mem (String.lowercase_ascii fn) agg_keywords ->
    ignore (Parse_state.advance ps);
    Parse_state.expect_punct ps "(";
    let col =
      match Parse_state.peek ps with
      | Lexer.Punct "*" ->
        ignore (Parse_state.advance ps);
        "*"
      | _ -> column ps
    in
    Parse_state.expect_punct ps ")";
    let as_name =
      if Parse_state.accept_kw ps "as" then Parse_state.ident ps
      else String.lowercase_ascii fn ^ "_" ^ col
    in
    Gen_agg (Aggregate.make (agg_fn ps fn col) ~as_name)
  | (Lexer.Ident name | Lexer.Qualified (_, name)), next
    when (not (List.mem (String.lowercase_ascii name) agg_keywords))
         && (next = Lexer.Punct "," || next = Lexer.Punct ";"
             || Lexer.is_keyword next "as") ->
    let c = column ps in
    let rename =
      if Parse_state.accept_kw ps "as" then Some (Parse_state.ident ps)
      else None
    in
    Gen_col (c, rename)
  | _ ->
    let e = Parse_state.expr ps in
    Parse_state.expect_kw ps "as";
    Gen_expr (e, Parse_state.ident ps)

let parse_gen_items ps =
  let rec go acc =
    let item = parse_gen_item ps in
    if Parse_state.accept_punct ps "," then go (item :: acc)
    else List.rev (item :: acc)
  in
  go []

let parse_group_keys ps =
  if Parse_state.accept_punct ps "(" then begin
    let rec go acc =
      let k = column ps in
      if Parse_state.accept_punct ps "," then go (k :: acc)
      else begin
        Parse_state.expect_punct ps ")";
        List.rev (k :: acc)
      end
    in
    go []
  end
  else [ column ps ]

let relation_literal ps =
  match Parse_state.advance ps with
  | Lexer.String_lit s -> s
  | Lexer.Ident s -> s
  | tok ->
    Parse_state.fail ps "expected relation name, found %s"
      (Lexer.token_to_string tok)

(* ---------------- FOREACH elaboration ---------------- *)

let foreach_grouped env ~name ~source ~keys items =
  let aggs =
    List.filter_map (function Gen_agg a -> Some a | _ -> None) items
  in
  let has_group =
    List.exists (function Gen_group -> true | _ -> false) items
  in
  if List.exists (function Gen_col _ | Gen_expr _ -> true | _ -> false) items
  then
    elab_error
      "FOREACH over a GROUPed relation may only generate 'group' and \
       aggregates";
  if not has_group then
    elab_error "FOREACH over a GROUPed relation must generate 'group'";
  if aggs = [] then
    elab_error "FOREACH over a GROUPed relation needs an aggregate";
  Plain (Ir.Builder.group_by env.builder ~name ~keys ~aggs source)

let foreach_plain env ~name source items =
  let plains =
    List.filter_map (function Gen_col (c, r) -> Some (c, r) | _ -> None)
      items
  and exprs =
    List.filter_map (function Gen_expr (e, n) -> Some (e, n) | _ -> None)
      items
  in
  if List.exists (function Gen_agg _ | Gen_group -> true | _ -> false) items
  then elab_error "aggregates in FOREACH require GROUPing the relation first";
  (* computed columns and renames become MAPs; one PROJECT fixes the
     output shape *)
  let with_exprs =
    List.fold_left
      (fun h (e, target) -> Ir.Builder.map env.builder ~target ~expr:e h)
      source exprs
  in
  let with_renames =
    List.fold_left
      (fun h (c, rename) ->
         match rename with
         | Some target when target <> c ->
           Ir.Builder.map env.builder ~target ~expr:(Expr.col c) h
         | _ -> h)
      with_exprs plains
  in
  let final_columns =
    List.map (fun (c, r) -> Option.value r ~default:c) plains
    @ List.map snd exprs
  in
  Plain
    (Ir.Builder.project env.builder ~name ~columns:final_columns with_renames)

(* ---------------- statements ---------------- *)

let parse_statement ps env =
  if Parse_state.accept_kw ps "store" then begin
    let rel = Parse_state.ident ps in
    Parse_state.expect_kw ps "into";
    let target = relation_literal ps in
    Parse_state.expect_punct ps ";";
    (* re-expose the stored relation under the requested name *)
    let h = plain env rel in
    let out =
      if Ir.Builder.relation h = target then h
      else
        Ir.Builder.select env.builder ~name:target ~pred:(Expr.bool true) h
    in
    env.stored <- (target, out) :: env.stored
  end
  else begin
    let name = Parse_state.ident ps in
    Parse_state.expect_punct ps "=";
    let binding =
      if Parse_state.accept_kw ps "load" then
        Plain (Ir.Builder.input env.builder (relation_literal ps))
      else if Parse_state.accept_kw ps "filter" then begin
        let src = plain env (Parse_state.ident ps) in
        Parse_state.expect_kw ps "by";
        Plain
          (Ir.Builder.select env.builder ~name ~pred:(Parse_state.expr ps)
             src)
      end
      else if Parse_state.accept_kw ps "foreach" then begin
        let src = Parse_state.ident ps in
        Parse_state.expect_kw ps "generate";
        let items = parse_gen_items ps in
        match resolve env src with
        | Grouped { source; keys } ->
          foreach_grouped env ~name ~source ~keys items
        | Plain h -> foreach_plain env ~name h items
      end
      else if Parse_state.accept_kw ps "group" then begin
        let src = plain env (Parse_state.ident ps) in
        Parse_state.expect_kw ps "by";
        Grouped { source = src; keys = parse_group_keys ps }
      end
      else if Parse_state.accept_kw ps "join" then begin
        let left = plain env (Parse_state.ident ps) in
        Parse_state.expect_kw ps "by";
        let left_key = column ps in
        Parse_state.expect_punct ps ",";
        let right = plain env (Parse_state.ident ps) in
        Parse_state.expect_kw ps "by";
        let right_key = column ps in
        Plain
          (Ir.Builder.join env.builder ~name ~left_key ~right_key left right)
      end
      else if Parse_state.accept_kw ps "distinct" then
        Plain
          (Ir.Builder.distinct env.builder ~name
             (plain env (Parse_state.ident ps)))
      else if Parse_state.accept_kw ps "union" then begin
        let a = plain env (Parse_state.ident ps) in
        Parse_state.expect_punct ps ",";
        let b = plain env (Parse_state.ident ps) in
        Plain (Ir.Builder.union env.builder ~name a b)
      end
      else if Parse_state.accept_kw ps "order" then begin
        let src = plain env (Parse_state.ident ps) in
        Parse_state.expect_kw ps "by";
        let by = column ps in
        let descending =
          if Parse_state.accept_kw ps "desc" then true
          else begin
            ignore (Parse_state.accept_kw ps "asc");
            false
          end
        in
        env.sort_hints <- (name, (by, descending)) :: env.sort_hints;
        Plain (Ir.Builder.sort env.builder ~name ~by ~descending src)
      end
      else if Parse_state.accept_kw ps "limit" then begin
        let src_name = Parse_state.ident ps in
        let k =
          match Parse_state.advance ps with
          | Lexer.Int_lit k -> k
          | tok ->
            Parse_state.fail ps "expected LIMIT count, found %s"
              (Lexer.token_to_string tok)
        in
        let by, descending =
          match List.assoc_opt src_name env.sort_hints with
          | Some info -> info
          | None ->
            elab_error "LIMIT %s requires a preceding ORDER BY" src_name
        in
        Plain
          (Ir.Builder.top_k env.builder ~name ~by ~descending ~k
             (plain env src_name))
      end
      else Parse_state.fail ps "unknown Pig statement"
    in
    Parse_state.expect_punct ps ";";
    bind env name binding
  end

let parse source =
  Obs.Trace.with_span
    ~attrs:[ ("lang", Obs.Trace.String "pig");
             ("bytes", Obs.Trace.Int (String.length source)) ]
    "frontend.parse"
  @@ fun () ->
  try
    let ps = Parse_state.of_string source in
    let env =
      { builder = Ir.Builder.create (); bindings = []; stored = [];
        sort_hints = [] }
    in
    let rec loop () =
      match Parse_state.peek ps with
      | Lexer.Eof -> ()
      | Lexer.Punct ";" ->
        ignore (Parse_state.advance ps);
        loop ()
      | _ ->
        parse_statement ps env;
        loop ()
    in
    loop ();
    let outputs =
      match env.stored with
      | [] -> (
        match env.bindings with
        | (_, Plain h) :: _ -> [ h ]
        | _ -> elab_error "empty program")
      | stored -> List.rev_map snd stored
    in
    Ir.Builder.finish env.builder ~outputs
  with
  | Parse_state.Parse_error (msg, line) -> raise (Parse_error (msg, line))
  | Ir.Dag.Invalid msg -> raise (Parse_error (msg, 0))
