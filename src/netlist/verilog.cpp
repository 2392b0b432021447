#include "netlist/verilog.hpp"

#include <cctype>
#include <map>
#include <sstream>
#include <vector>

namespace hlp::netlist {

namespace {

std::string net(GateId g) {
  std::string s = "n";
  s += std::to_string(g);
  return s;
}

const char* infix_op(GateKind k) {
  switch (k) {
    case GateKind::And:
    case GateKind::Nand: return " & ";
    case GateKind::Or:
    case GateKind::Nor: return " | ";
    case GateKind::Xor:
    case GateKind::Xnor: return " ^ ";
    default: return nullptr;
  }
}

bool inverted(GateKind k) {
  return k == GateKind::Nand || k == GateKind::Nor || k == GateKind::Xnor ||
         k == GateKind::Not;
}

}  // namespace

std::string to_verilog(const Netlist& nl, std::string_view module_name) {
  std::ostringstream os;
  const bool sequential = !nl.dffs().empty();

  os << "module " << module_name << "(";
  if (sequential) os << "clk, ";
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    os << "pi" << i << ", ";
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    os << "po" << i;
    if (i + 1 < nl.outputs().size()) os << ", ";
  }
  os << ");\n";
  if (sequential) os << "  input clk;\n";
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    os << "  input pi" << i << ";\n";
  for (std::size_t i = 0; i < nl.outputs().size(); ++i)
    os << "  output po" << i << ";\n";

  for (GateId g = 0; g < nl.gate_count(); ++g) {
    if (nl.gate(g).kind == GateKind::Dff)
      os << "  reg " << net(g) << ";\n";
    else
      os << "  wire " << net(g) << ";\n";
  }

  // Input bindings.
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    os << "  assign " << net(nl.inputs()[i]) << " = pi" << i << ";\n";

  // Combinational logic.
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    const Gate& gate = nl.gate(g);
    switch (gate.kind) {
      case GateKind::Input:
      case GateKind::Dff:
        break;
      case GateKind::Const0:
        os << "  assign " << net(g) << " = 1'b0;\n";
        break;
      case GateKind::Const1:
        os << "  assign " << net(g) << " = 1'b1;\n";
        break;
      case GateKind::Buf:
        os << "  assign " << net(g) << " = " << net(gate.fanins[0])
           << ";\n";
        break;
      case GateKind::Not:
        os << "  assign " << net(g) << " = ~" << net(gate.fanins[0])
           << ";\n";
        break;
      case GateKind::Mux:
        os << "  assign " << net(g) << " = " << net(gate.fanins[0]) << " ? "
           << net(gate.fanins[2]) << " : " << net(gate.fanins[1]) << ";\n";
        break;
      default: {
        const char* op = infix_op(gate.kind);
        os << "  assign " << net(g) << " = ";
        if (inverted(gate.kind)) os << "~(";
        for (std::size_t i = 0; i < gate.fanins.size(); ++i) {
          os << net(gate.fanins[i]);
          if (i + 1 < gate.fanins.size()) os << op;
        }
        if (inverted(gate.kind)) os << ")";
        os << ";\n";
        break;
      }
    }
  }

  if (sequential) {
    os << "  always @(posedge clk) begin\n";
    for (GateId d : nl.dffs()) {
      const Gate& g = nl.gate(d);
      if (!g.fanins.empty())
        os << "    " << net(d) << " <= " << net(g.fanins[0]) << ";\n";
    }
    os << "  end\n";
  }

  for (std::size_t i = 0; i < nl.outputs().size(); ++i)
    os << "  assign po" << i << " = " << net(nl.outputs()[i]) << ";\n";
  os << "endmodule\n";
  return os.str();
}

// --- Parser ----------------------------------------------------------------

VerilogError::VerilogError(int line, const std::string& msg)
    : std::runtime_error("verilog:" + std::to_string(line) + ": " + msg),
      line_(line) {}

namespace {

struct Token {
  enum Kind { Ident, Literal, Punct, End } kind = End;
  std::string text;
  int line = 1;
};

std::vector<Token> lex(std::string_view src) {
  std::vector<Token> toks;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  auto alnum = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '$';
  };
  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') ++i;
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < n && alnum(src[j])) ++j;
      toks.push_back({Token::Ident, std::string(src.substr(i, j - i)), line});
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      // The subset's only numeric literals are 1'b0 / 1'b1.
      std::size_t j = i;
      while (j < n && (alnum(src[j]) || src[j] == '\'')) ++j;
      toks.push_back(
          {Token::Literal, std::string(src.substr(i, j - i)), line});
      i = j;
    } else if (c == '<' && i + 1 < n && src[i + 1] == '=') {
      toks.push_back({Token::Punct, "<=", line});
      i += 2;
    } else {
      toks.push_back({Token::Punct, std::string(1, c), line});
      ++i;
    }
  }
  toks.push_back({Token::End, "", line});
  return toks;
}

/// One parsed RHS: a gate kind plus operand net names (fanin order).
struct Driver {
  GateKind kind = GateKind::Buf;
  std::vector<std::string> operands;
  int line = 1;
};

enum class NetClass { PortIn, PortOut, Wire, Reg };

struct NetDecl {
  NetClass cls = NetClass::Wire;
  int line = 1;
};

class Parser {
 public:
  explicit Parser(std::string_view src) : toks_(lex(src)) {}

  ParsedModule parse() {
    parse_module();
    return build();
  }

 private:
  [[noreturn]] void fail(int line, const std::string& msg) {
    throw VerilogError(line, msg);
  }
  const Token& peek() const { return toks_[pos_]; }
  Token take() { return toks_[pos_++]; }
  bool at_ident(std::string_view kw) const {
    return peek().kind == Token::Ident && peek().text == kw;
  }
  void expect_punct(std::string_view p) {
    Token t = take();
    if (t.kind != Token::Punct || t.text != p) {
      if (t.kind == Token::End)
        fail(t.line, "unexpected end of file (expected '" + std::string(p) +
                         "')");
      fail(t.line, "expected '" + std::string(p) + "', got '" + t.text + "'");
    }
  }
  std::string expect_ident(const char* what) {
    Token t = take();
    if (t.kind != Token::Ident) {
      if (t.kind == Token::End)
        fail(t.line,
             std::string("unexpected end of file (expected ") + what + ")");
      fail(t.line, std::string("expected ") + what + ", got '" + t.text +
                       "'");
    }
    return t.text;
  }

  const NetDecl* decl_of(const std::string& name) const {
    auto it = decls_.find(name);
    return it == decls_.end() ? nullptr : &it->second;
  }

  void declare(const std::string& name, NetClass cls, int line) {
    auto [it, fresh] = decls_.emplace(name, NetDecl{cls, line});
    if (!fresh)
      fail(line, "duplicate declaration of '" + name +
                     "' (first declared on line " +
                     std::to_string(it->second.line) + ")");
    decl_order_.push_back(name);
    if (cls == NetClass::PortIn || cls == NetClass::PortOut) {
      bool listed = false;
      for (const std::string& p : port_list_) listed |= p == name;
      if (!listed)
        fail(line, "port '" + name + "' is not in the module port list");
    }
  }

  void parse_module() {
    if (!at_ident("module"))
      fail(peek().line, peek().kind == Token::End
                            ? "empty file: expected 'module'"
                            : "expected 'module'");
    take();
    mod_name_ = expect_ident("module name");
    expect_punct("(");
    if (!(peek().kind == Token::Punct && peek().text == ")"))
      while (true) {
        port_list_.push_back(expect_ident("port name"));
        if (peek().kind == Token::Punct && peek().text == ",") {
          take();
          continue;
        }
        break;
      }
    expect_punct(")");
    expect_punct(";");

    bool closed = false;
    while (!closed) {
      Token t = peek();
      if (t.kind == Token::End)
        fail(t.line, "unexpected end of file: missing 'endmodule'");
      if (t.kind != Token::Ident)
        fail(t.line, "expected a statement, got '" + t.text + "'");
      if (t.text == "input")
        parse_decl(NetClass::PortIn);
      else if (t.text == "output")
        parse_decl(NetClass::PortOut);
      else if (t.text == "wire")
        parse_decl(NetClass::Wire);
      else if (t.text == "reg")
        parse_decl(NetClass::Reg);
      else if (t.text == "assign")
        parse_assign();
      else if (t.text == "always")
        parse_always();
      else if (t.text == "endmodule") {
        take();
        closed = true;
      } else {
        fail(t.line, "unsupported statement '" + t.text + "'");
      }
    }
    if (peek().kind != Token::End) {
      if (at_ident("module"))
        fail(peek().line, "duplicate module definition ('" + mod_name_ +
                              "' already ended)");
      fail(peek().line, "trailing tokens after 'endmodule'");
    }
  }

  void parse_decl(NetClass cls) {
    take();  // keyword
    while (true) {
      Token t = toks_[pos_];
      declare(expect_ident("net name"), cls, t.line);
      if (peek().kind == Token::Punct && peek().text == ",") {
        take();
        continue;
      }
      break;
    }
    expect_punct(";");
  }

  GateKind nary_kind(const std::string& op, bool inverted, int line) {
    if (op == "&") return inverted ? GateKind::Nand : GateKind::And;
    if (op == "|") return inverted ? GateKind::Nor : GateKind::Or;
    if (op == "^") return inverted ? GateKind::Xnor : GateKind::Xor;
    fail(line, "unsupported operator '" + op + "'");
  }

  /// ident (op ident)* with a single consistent operator.
  void parse_operand_chain(Driver& d, bool inverted) {
    d.operands.push_back(expect_ident("operand"));
    std::string op;
    while (peek().kind == Token::Punct &&
           (peek().text == "&" || peek().text == "|" || peek().text == "^")) {
      Token t = take();
      if (op.empty())
        op = t.text;
      else if (op != t.text)
        fail(t.line, "mixed operators '" + op + "' and '" + t.text +
                         "' in one expression");
      d.operands.push_back(expect_ident("operand"));
    }
    d.kind = op.empty()
                 ? (inverted ? GateKind::Not : GateKind::Buf)
                 : nary_kind(op, inverted, d.line);
    if (op.empty() && d.operands.size() != 1)
      fail(d.line, "expected an operator");
  }

  void parse_assign() {
    Token kw = take();  // 'assign'
    std::string target = expect_ident("assignment target");
    expect_punct("=");
    Driver d;
    d.line = kw.line;
    Token t = peek();
    if (t.kind == Token::Literal) {
      take();
      if (t.text == "1'b0")
        d.kind = GateKind::Const0;
      else if (t.text == "1'b1")
        d.kind = GateKind::Const1;
      else
        fail(t.line, "unsupported literal '" + t.text + "' (only 1'b0/1'b1)");
    } else if (t.kind == Token::Punct && t.text == "~") {
      take();
      if (peek().kind == Token::Punct && peek().text == "(") {
        take();
        parse_operand_chain(d, /*inverted=*/true);
        if (d.kind == GateKind::Not)
          fail(t.line, "expected an operator inside '~(...)'");
        expect_punct(")");
      } else {
        d.operands.push_back(expect_ident("operand"));
        d.kind = GateKind::Not;
      }
    } else {
      parse_operand_chain(d, /*inverted=*/false);
      if (peek().kind == Token::Punct && peek().text == "?") {
        if (d.kind != GateKind::Buf)
          fail(peek().line, "ternary condition must be a single net");
        take();
        std::string d1 = expect_ident("operand");
        expect_punct(":");
        std::string d0 = expect_ident("operand");
        d.kind = GateKind::Mux;  // fanins: {sel, d0, d1}
        d.operands.push_back(std::move(d0));
        d.operands.push_back(std::move(d1));
      }
    }
    expect_punct(";");
    record_driver(target, std::move(d));
  }

  void record_driver(const std::string& target, Driver d) {
    const NetDecl* decl = decl_of(target);
    if (!decl) fail(d.line, "undeclared net '" + target + "'");
    if (decl->cls == NetClass::PortIn)
      fail(d.line, "cannot drive input port '" + target + "'");
    if (decl->cls == NetClass::Reg)
      fail(d.line, "reg '" + target +
                       "' driven by assign (use <= in an always block)");
    const int line = d.line;
    auto [it, fresh] = drivers_.emplace(target, std::move(d));
    if (!fresh)
      fail(line, "net '" + target + "' has multiple drivers (first on line " +
                     std::to_string(it->second.line) + ")");
  }

  void parse_always() {
    Token kw = take();  // 'always'
    if (!clock_.empty())
      fail(kw.line, "only one always block is supported");
    expect_punct("@");
    expect_punct("(");
    std::string edge = expect_ident("'posedge'");
    if (edge != "posedge") fail(kw.line, "expected 'posedge'");
    clock_ = expect_ident("clock net");
    const NetDecl* cd = decl_of(clock_);
    if (!cd || cd->cls != NetClass::PortIn)
      fail(kw.line, "clock '" + clock_ + "' is not an input port");
    expect_punct(")");
    std::string b = expect_ident("'begin'");
    if (b != "begin") fail(kw.line, "expected 'begin'");
    while (!at_ident("end")) {
      if (peek().kind == Token::End)
        fail(peek().line, "unexpected end of file inside always block");
      Token t = peek();
      std::string target = expect_ident("reg name");
      const NetDecl* decl = decl_of(target);
      if (!decl) fail(t.line, "undeclared net '" + target + "'");
      if (decl->cls != NetClass::Reg)
        fail(t.line, "non-blocking assignment to non-reg '" + target + "'");
      expect_punct("<=");
      std::string src = expect_ident("reg D input");
      expect_punct(";");
      auto [it, fresh] = reg_drivers_.emplace(target, std::pair{src, t.line});
      if (!fresh)
        fail(t.line, "reg '" + target + "' has multiple drivers (first on line " +
                         std::to_string(it->second.second) + ")");
    }
    take();  // 'end'
  }

  // --- Netlist construction ----------------------------------------------

  GateId resolve(const std::string& name, int line,
                 const std::map<std::string, GateId>& ids) const {
    auto it = ids.find(name);
    if (it != ids.end()) return it->second;
    const NetDecl* decl = decl_of(name);
    if (!decl) throw VerilogError(line, "undeclared net '" + name + "'");
    if (decl->cls == NetClass::PortOut)
      throw VerilogError(line, "cannot read output port '" + name + "'");
    if (name == clock_)
      throw VerilogError(line,
                         "clock '" + name + "' cannot be read as data");
    throw VerilogError(line, "net '" + name + "' has no driver");
  }

  ParsedModule build() {
    ParsedModule out;
    out.name = mod_name_;
    out.clock = clock_;
    Netlist& nl = out.netlist;
    std::map<std::string, GateId> ids;  // net/port name -> gate

    // Ports must all be declared.
    for (const std::string& p : port_list_)
      if (!decl_of(p))
        fail(1, "port '" + p + "' is never declared input or output");

    // Input gates in port-list order (the clock is consumed by the always
    // block, not modeled as a data input).
    for (const std::string& p : port_list_) {
      const NetDecl* d = decl_of(p);
      if (d->cls == NetClass::PortIn && p != clock_)
        ids[p] = nl.add_input(p);
    }
    // DFFs for regs (declaration order, so round trips renumber stably);
    // D inputs are wired after the combinational gates exist.
    for (const std::string& name : decl_order_) {
      const NetDecl& d = decls_.at(name);
      if (d.cls != NetClass::Reg) continue;
      if (!reg_drivers_.count(name))
        fail(d.line, "reg '" + name + "' has no driver");
      ids[name] = nl.add_dff(kNullGate, false, name);
    }

    // Wires: every declared wire needs exactly one driver.
    std::vector<std::pair<std::string, const Driver*>> pending;
    for (const std::string& name : decl_order_) {
      const NetDecl& d = decls_.at(name);
      if (d.cls != NetClass::Wire) continue;
      auto it = drivers_.find(name);
      if (it == drivers_.end())
        fail(d.line, "net '" + name + "' has no driver");
      pending.emplace_back(name, &it->second);
    }

    // Create combinational gates in dependency order by repeated sweeps
    // over the parsed drivers (this orders source declarations; gates do
    // not exist yet); a sweep that makes no progress means the file has a
    // true combinational cycle through assigns.
    while (!pending.empty()) {
      std::size_t kept = 0;
      for (auto& [name, d] : pending) {
        bool ready = true;
        for (const std::string& op : d->operands)
          if (!ids.count(op)) {
            const NetDecl* od = decl_of(op);
            if (od && od->cls == NetClass::Wire && drivers_.count(op)) {
              ready = false;  // driven wire not built yet
              break;
            }
            resolve(op, d->line, ids);  // throws the precise error
          }
        if (!ready) {
          pending[kept++] = {name, d};
          continue;
        }
        if (d->kind == GateKind::Const0 || d->kind == GateKind::Const1) {
          ids[name] = nl.add_const(d->kind == GateKind::Const1);
        } else if (d->kind == GateKind::Buf && d->operands.size() == 1 &&
                   decl_of(d->operands[0])->cls == NetClass::PortIn) {
          // `assign nX = piK;` — the wire *is* the input binding.
          ids[name] = resolve(d->operands[0], d->line, ids);
        } else {
          std::vector<GateId> fi;
          fi.reserve(d->operands.size());
          for (const std::string& op : d->operands)
            fi.push_back(resolve(op, d->line, ids));
          ids[name] = nl.add_gate(d->kind, fi, name);
        }
      }
      if (kept == pending.size()) {
        const auto& [name, d] = pending.front();
        fail(d->line,
             "combinational cycle through net '" + name + "'");
      }
      pending.resize(kept);
    }

    // Wire the DFF D inputs.
    for (const auto& [name, src] : reg_drivers_)
      nl.set_dff_input(ids[name], resolve(src.first, src.second, ids));

    // Output ports in port-list order.
    for (const std::string& p : port_list_) {
      if (decl_of(p)->cls != NetClass::PortOut) continue;
      auto it = drivers_.find(p);
      if (it == drivers_.end())
        fail(decl_of(p)->line, "output port '" + p + "' is never driven");
      const Driver& d = it->second;
      if (d.kind != GateKind::Buf || d.operands.size() != 1)
        fail(d.line, "output port '" + p + "' must be a plain net alias");
      nl.mark_output(resolve(d.operands[0], d.line, ids), p);
    }
    return out;
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  std::string mod_name_;
  std::vector<std::string> port_list_;
  std::map<std::string, NetDecl> decls_;
  std::vector<std::string> decl_order_;
  std::map<std::string, Driver> drivers_;
  std::map<std::string, std::pair<std::string, int>> reg_drivers_;
  std::string clock_;
};

}  // namespace

ParsedModule parse_verilog(std::string_view src) {
  return Parser(src).parse();
}

}  // namespace hlp::netlist
