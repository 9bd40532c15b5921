open Relation

exception Parse_error of string * int

(* ---------------- AST ---------------- *)

type sitem =
  | Scol of string * string option       (* column, optional rename *)
  | Sagg of Aggregate.t

type select_spec = {
  items : sitem list;
  from_ : string;
  where_ : Expr.t option;
  group_by : string list option;
}

type rexpr =
  | Rinput of string
  | Rselect of select_spec
  | Rjoin of { left : string; right : string; left_key : string;
               right_key : string }
  | Rsemijoin of { left : string; right : string; left_key : string;
                   right_key : string; anti : bool }
  | Rcross of string * string
  | Rsetop of [ `Union | `Intersect | `Difference ] * string * string
  | Rmap of { src : string; target : string; expr : Expr.t }
  | Rdistinct of string
  | Rtop of { src : string; by : string; k : int; descending : bool }
  | Rsort of { src : string; by : string; descending : bool }

type cond =
  | Citer of int
  | Cnonempty of string
  | Cchanges of string

type item =
  | Assign of string * rexpr
  | While_block of { cond : cond; maxiter : int option; body : item list }
  | Output of string

(* ---------------- parsing ---------------- *)

let agg_keywords = [ "max"; "min"; "sum"; "avg"; "count" ]

let column ps =
  match Parse_state.advance ps with
  | Lexer.Ident c -> c
  | Lexer.Qualified (_, c) -> c
  | tok ->
    Parse_state.fail ps "expected column, found %s" (Lexer.token_to_string tok)

let parse_sitem ps =
  match Parse_state.peek ps, Parse_state.peek2 ps with
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
    let default = String.lowercase_ascii fn ^ "_" ^ col in
    let as_name =
      if Parse_state.accept_kw ps "as" then Parse_state.ident ps
      else if col = "*" then String.lowercase_ascii fn
      else default
    in
    let fn =
      match String.lowercase_ascii fn with
      | "max" -> Aggregate.Max col
      | "min" -> Aggregate.Min col
      | "sum" -> Aggregate.Sum col
      | "avg" -> Aggregate.Avg col
      | "count" -> Aggregate.Count
      | _ -> assert false
    in
    Sagg (Aggregate.make fn ~as_name)
  | _ ->
    let col = column ps in
    let rename =
      if Parse_state.accept_kw ps "as" then Some (Parse_state.ident ps)
      else None
    in
    Scol (col, rename)

let parse_rexpr ps =
  if Parse_state.accept_kw ps "input" then
    match Parse_state.advance ps with
    | Lexer.String_lit s -> Rinput s
    | Lexer.Ident s -> Rinput s
    | tok ->
      Parse_state.fail ps "expected relation name after INPUT, found %s"
        (Lexer.token_to_string tok)
  else if Parse_state.at_kw ps "select" then begin
    Parse_state.expect_kw ps "select";
    let rec items acc =
      let item = parse_sitem ps in
      if Parse_state.accept_punct ps "," then items (item :: acc)
      else List.rev (item :: acc)
    in
    let items = items [] in
    Parse_state.expect_kw ps "from";
    let from_ = Parse_state.ident ps in
    let where_ =
      if Parse_state.accept_kw ps "where" then Some (Parse_state.expr ps)
      else None
    in
    let group_by =
      if Parse_state.accept_kw ps "group" then begin
        Parse_state.expect_kw ps "by";
        let rec keys acc =
          let k = column ps in
          if Parse_state.accept_punct ps "," || Parse_state.accept_kw ps "and"
          then keys (k :: acc)
          else List.rev (k :: acc)
        in
        Some (keys [])
      end
      else None
    in
    Rselect { items; from_; where_; group_by }
  end
  else if Parse_state.accept_kw ps "map" then begin
    let src = Parse_state.ident ps in
    Parse_state.expect_kw ps "set";
    let target = Parse_state.ident ps in
    Parse_state.expect_punct ps "=";
    Rmap { src; target; expr = Parse_state.expr ps }
  end
  else if Parse_state.accept_kw ps "distinct" then
    Rdistinct (Parse_state.ident ps)
  else if Parse_state.accept_kw ps "top" then begin
    let k =
      match Parse_state.advance ps with
      | Lexer.Int_lit k -> k
      | tok ->
        Parse_state.fail ps "expected TOP count, found %s"
          (Lexer.token_to_string tok)
    in
    Parse_state.expect_kw ps "of";
    let src = Parse_state.ident ps in
    Parse_state.expect_kw ps "by";
    let by = column ps in
    let descending = not (Parse_state.accept_kw ps "asc") in
    if descending then ignore (Parse_state.accept_kw ps "desc");
    Rtop { src; by; k; descending }
  end
  else if Parse_state.accept_kw ps "sort" then begin
    let src = Parse_state.ident ps in
    Parse_state.expect_kw ps "by";
    let by = column ps in
    let descending =
      if Parse_state.accept_kw ps "desc" then true
      else begin
        ignore (Parse_state.accept_kw ps "asc");
        false
      end
    in
    Rsort { src; by; descending }
  end
  else begin
    (* binary relational form: name OP name *)
    let left = Parse_state.ident ps in
    if Parse_state.accept_kw ps "join" then begin
      let right = Parse_state.ident ps in
      Parse_state.expect_kw ps "on";
      let left_key = column ps in
      Parse_state.expect_punct ps "=";
      let right_key = column ps in
      Rjoin { left; right; left_key; right_key }
    end
    else if Parse_state.at_kw ps "semijoin" || Parse_state.at_kw ps "antijoin"
    then begin
      let anti = Parse_state.at_kw ps "antijoin" in
      ignore (Parse_state.advance ps);
      let right = Parse_state.ident ps in
      Parse_state.expect_kw ps "on";
      let left_key = column ps in
      Parse_state.expect_punct ps "=";
      let right_key = column ps in
      Rsemijoin { left; right; left_key; right_key; anti }
    end
    else if Parse_state.accept_kw ps "cross" then
      Rcross (left, Parse_state.ident ps)
    else if Parse_state.accept_kw ps "union" then
      Rsetop (`Union, left, Parse_state.ident ps)
    else if Parse_state.accept_kw ps "intersect" then
      Rsetop (`Intersect, left, Parse_state.ident ps)
    else if Parse_state.accept_kw ps "difference" then
      Rsetop (`Difference, left, Parse_state.ident ps)
    else
      Parse_state.fail ps
        "expected JOIN/CROSS/UNION/INTERSECT/DIFFERENCE after %s" left
  end

let rec parse_items ps ~in_block acc =
  match Parse_state.peek ps with
  | Lexer.Eof ->
    if in_block then Parse_state.fail ps "unterminated WHILE block"
    else List.rev acc
  | Lexer.Punct "}" when in_block -> List.rev acc
  | Lexer.Punct ";" ->
    ignore (Parse_state.advance ps);
    parse_items ps ~in_block acc
  | tok when Lexer.is_keyword tok "while" ->
    ignore (Parse_state.advance ps);
    Parse_state.expect_punct ps "(";
    let cond =
      if Parse_state.accept_kw ps "iteration" then begin
        Parse_state.expect_punct ps "<";
        match Parse_state.advance ps with
        | Lexer.Int_lit n -> Citer n
        | t ->
          Parse_state.fail ps "expected iteration bound, found %s"
            (Lexer.token_to_string t)
      end
      else if Parse_state.accept_kw ps "nonempty" then
        Cnonempty (Parse_state.ident ps)
      else if Parse_state.accept_kw ps "changes" then
        Cchanges (Parse_state.ident ps)
      else Parse_state.fail ps "expected ITERATION/NONEMPTY/CHANGES"
    in
    Parse_state.expect_punct ps ")";
    let maxiter =
      if Parse_state.accept_kw ps "maxiter" then
        match Parse_state.advance ps with
        | Lexer.Int_lit n -> Some n
        | t ->
          Parse_state.fail ps "expected MAXITER bound, found %s"
            (Lexer.token_to_string t)
      else None
    in
    Parse_state.expect_punct ps "{";
    let body = parse_items ps ~in_block:true [] in
    Parse_state.expect_punct ps "}";
    parse_items ps ~in_block (While_block { cond; maxiter; body } :: acc)
  | tok when Lexer.is_keyword tok "output" ->
    ignore (Parse_state.advance ps);
    let name = Parse_state.ident ps in
    parse_items ps ~in_block (Output name :: acc)
  | Lexer.Ident name ->
    ignore (Parse_state.advance ps);
    Parse_state.expect_punct ps "=";
    let rexpr = parse_rexpr ps in
    parse_items ps ~in_block (Assign (name, rexpr) :: acc)
  | tok ->
    Parse_state.fail ps "unexpected %s" (Lexer.token_to_string tok)

(* ---------------- free-variable analysis ---------------- *)

let rexpr_reads = function
  | Rinput _ -> []
  | Rselect { from_; _ } -> [ from_ ]
  | Rjoin { left; right; _ } | Rsemijoin { left; right; _ }
  | Rcross (left, right)
  | Rsetop (_, left, right) ->
    [ left; right ]
  | Rmap { src; _ } | Rdistinct src | Rtop { src; _ } | Rsort { src; _ } ->
    [ src ]

(* relations a block reads before (re)binding them, and all bindings *)
let rec block_free_and_writes body =
  let rec go assigned free writes = function
    | [] -> (List.rev free, List.rev writes)
    | Output _ :: rest -> go assigned free writes rest
    | Assign (name, rexpr) :: rest ->
      let reads = rexpr_reads rexpr in
      let free =
        List.fold_left
          (fun free r ->
             if List.mem r assigned || List.mem r free then free else r :: free)
          free reads
      in
      let writes = if List.mem name writes then writes else name :: writes in
      go (name :: assigned) free writes rest
    | While_block { body; _ } :: rest ->
      let inner_free, inner_writes = block_free_and_writes body in
      let free =
        List.fold_left
          (fun free r ->
             if List.mem r assigned || List.mem r free then free else r :: free)
          free inner_free
      in
      let writes =
        List.fold_left
          (fun writes w -> if List.mem w writes then writes else w :: writes)
          writes inner_writes
      in
      go (inner_writes @ assigned) free writes rest
  in
  go [] [] [] body

(* ---------------- elaboration ---------------- *)

type env = {
  builder : Ir.Builder.t;
  mutable bindings : (string * Ir.Builder.handle) list;
  mutable outputs : Ir.Builder.handle list;
}

let elab_error fmt = Printf.ksprintf (fun s -> raise (Parse_error (s, 0))) fmt

let resolve env name =
  match List.assoc_opt name env.bindings with
  | Some h -> h
  | None ->
    let h = Ir.Builder.input env.builder name in
    env.bindings <- (name, h) :: env.bindings;
    h

let bind env name handle = env.bindings <- (name, handle) :: env.bindings

(* SELECT elaboration: WHERE -> (GROUP BY | projection) -> renames;
   the final node of the chain carries the bound relation [name] *)
let elaborate_select env ~name { items; from_; where_; group_by } =
  let handle = resolve env from_ in
  let handle =
    match where_ with
    | Some pred -> Ir.Builder.select env.builder ~pred handle
    | None -> handle
  in
  let aggs =
    List.filter_map (function Sagg a -> Some a | Scol _ -> None) items
  and plains =
    List.filter_map (function Scol (c, r) -> Some (c, r) | Sagg _ -> None)
      items
  in
  let renames = List.filter (fun (_, r) -> r <> None) plains in
  let last_name = if renames = [] then Some name else None in
  let grouped =
    match group_by, aggs with
    | Some keys, _ ->
      Ir.Builder.group_by env.builder ?name:last_name ~keys ~aggs handle
    | None, [] ->
      Ir.Builder.project env.builder ?name:last_name
        ~columns:(List.map fst plains) handle
    | None, _ -> Ir.Builder.agg env.builder ?name:last_name ~aggs handle
  in
  (* renames: MAP new := old, then project to the final column list *)
  if renames = [] then grouped
  else begin
    let with_new_cols =
      List.fold_left
        (fun h (old_col, rename) ->
           match rename with
           | Some new_col when new_col <> old_col ->
             Ir.Builder.map env.builder ~target:new_col
               ~expr:(Expr.col old_col) h
           | _ -> h)
        grouped renames
    in
    let final_columns =
      List.map (fun (c, r) -> Option.value r ~default:c) plains
      @ List.map (fun (a : Aggregate.t) -> a.as_name) aggs
      @ (match group_by with
         | Some keys ->
           List.filter
             (fun k -> not (List.exists (fun (c, _) -> c = k) plains))
             keys
         | None -> [])
    in
    Ir.Builder.project env.builder ~name ~columns:final_columns
      with_new_cols
  end

let elaborate_rexpr env ~name rexpr =
  match rexpr with
  | Rinput relation -> Ir.Builder.input env.builder relation
  | Rselect sel -> elaborate_select env ~name sel
  | Rjoin { left; right; left_key; right_key } ->
    let l = resolve env left and r = resolve env right in
    Ir.Builder.join env.builder ~name ~left_key ~right_key l r
  | Rsemijoin { left; right; left_key; right_key; anti } ->
    let l = resolve env left and r = resolve env right in
    if anti then
      Ir.Builder.anti_join env.builder ~name ~left_key ~right_key l r
    else Ir.Builder.semi_join env.builder ~name ~left_key ~right_key l r
  | Rcross (left, right) ->
    let l = resolve env left and r = resolve env right in
    Ir.Builder.cross env.builder ~name l r
  | Rsetop (op, left, right) -> (
    let l = resolve env left and r = resolve env right in
    match op with
    | `Union -> Ir.Builder.union env.builder ~name l r
    | `Intersect -> Ir.Builder.intersect env.builder ~name l r
    | `Difference -> Ir.Builder.difference env.builder ~name l r)
  | Rmap { src; target; expr } ->
    Ir.Builder.map env.builder ~name ~target ~expr (resolve env src)
  | Rdistinct src -> Ir.Builder.distinct env.builder ~name (resolve env src)
  | Rtop { src; by; k; descending } ->
    Ir.Builder.top_k env.builder ~name ~by ~descending ~k (resolve env src)
  | Rsort { src; by; descending } ->
    Ir.Builder.sort env.builder ~name ~by ~descending (resolve env src)

let rec elaborate_items env items =
  List.iter
    (function
      | Assign (name, rexpr) ->
        let h = elaborate_rexpr env ~name rexpr in
        bind env name h
      | Output name -> env.outputs <- resolve env name :: env.outputs
      | While_block { cond; maxiter; body } ->
        elaborate_while env ~cond ~maxiter ~body)
    items

and elaborate_while env ~cond ~maxiter ~body =
  let free, writes = block_free_and_writes body in
  let loop_carried = List.filter (fun r -> List.mem r writes) free in
  if loop_carried = [] then
    elab_error "WHILE block must read and re-bind at least one relation";
  (* condition relation must be loop-carried *)
  (match cond with
   | Citer _ -> ()
   | Cnonempty r | Cchanges r ->
     if not (List.mem r loop_carried) then
       elab_error "WHILE condition relation %S is not loop-carried" r);
  let body_builder = Ir.Builder.create () in
  let body_env = { builder = body_builder; bindings = []; outputs = [] } in
  (* create body inputs in [free] order *)
  List.iter
    (fun r -> bind body_env r (Ir.Builder.input body_builder r))
    free;
  elaborate_items body_env body;
  (* each carried relation's final binding replaces it next iteration *)
  let carried =
    List.map (fun r -> (r, List.assoc r body_env.bindings)) loop_carried
  in
  let body_graph = Ir.Builder.finish_body body_builder ~carried in
  let condition, default_max =
    match cond with
    | Citer n -> (Ir.Operator.Fixed_iterations n, n + 1)
    | Cnonempty r -> (Ir.Operator.Until_empty r, 100)
    | Cchanges r -> (Ir.Operator.Until_fixpoint r, 100)
  in
  let max_iterations = Option.value maxiter ~default:default_max in
  let while_inputs = List.map (resolve env) free in
  let loop_handle =
    Ir.Builder.while_ env.builder
      ~name:(List.hd loop_carried)
      ~condition ~max_iterations ~body:body_graph while_inputs
  in
  (* after the loop, the first loop-carried relation is the result *)
  bind env (List.hd loop_carried) loop_handle

let parse source =
  Obs.Trace.with_span
    ~attrs:[ ("lang", Obs.Trace.String "beer");
             ("bytes", Obs.Trace.Int (String.length source)) ]
    "frontend.parse"
  @@ fun () ->
  try
    let ps = Parse_state.of_string source in
    let items = parse_items ps ~in_block:false [] in
    let env = { builder = Ir.Builder.create (); bindings = []; outputs = [] } in
    elaborate_items env items;
    let outputs =
      if env.outputs <> [] then List.rev env.outputs
      else
        (* no OUTPUT statements: use the most recent binding *)
        match env.bindings with
        | (_, h) :: _ -> [ h ]
        | [] -> raise (Parse_error ("empty program", 0))
    in
    Ir.Builder.finish env.builder ~outputs
  with
  | Parse_state.Parse_error (msg, line) -> raise (Parse_error (msg, line))
  | Ir.Dag.Invalid msg -> raise (Parse_error (msg, 0))
