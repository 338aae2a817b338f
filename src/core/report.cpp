#include "core/report.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace pmacx::core {

std::vector<std::pair<std::string, std::size_t>> FitReport::form_histogram() const {
  std::map<std::string, std::size_t> counts;
  for (const ElementFit& fit : elements)
    if (fit.influential) ++counts[stats::form_name(fit.model.form)];
  return {counts.begin(), counts.end()};
}

double FitReport::worst_influential_error() const {
  double worst = 0.0;
  for (const ElementFit& fit : elements)
    if (fit.influential) worst = std::max(worst, fit.max_fit_rel_error);
  return worst;
}

std::vector<const ElementFit*> FitReport::worst_elements(std::size_t count) const {
  std::vector<const ElementFit*> influential;
  for (const ElementFit& fit : elements)
    if (fit.influential) influential.push_back(&fit);
  std::sort(influential.begin(), influential.end(),
            [](const ElementFit* a, const ElementFit* b) {
              return a->max_fit_rel_error > b->max_fit_rel_error;
            });
  if (influential.size() > count) influential.resize(count);
  return influential;
}

std::string FitReport::to_csv() const {
  std::vector<std::string> header = {"block", "instr", "element"};
  for (double value : axis) header.push_back(util::format("at_%g", value));
  for (const char* column : {"form", "a", "b", "c", "sse", "r2", "max_fit_rel_error",
                             "extrapolated", "clamped", "influential", "ci_lo", "ci_hi",
                             "bayes_lo", "bayes_median", "bayes_hi", "bayes_form",
                             "bayes_weight"})
    header.emplace_back(column);

  util::Table table(std::move(header));
  for (std::size_t i = 0; i < elements.size(); ++i) {
    const ElementFit& fit = elements[i];
    std::vector<std::string> row;
    row.push_back(std::to_string(fit.key.block_id));
    row.push_back(fit.key.is_block_level() ? "-" : std::to_string(fit.key.instr_index));
    row.push_back(fit.key.is_block_level()
                      ? trace::block_element_name(
                            static_cast<trace::BlockElement>(fit.key.element))
                      : trace::instr_element_name(
                            static_cast<trace::InstrElement>(fit.key.element)));
    for (double value : inputs(i)) row.push_back(util::format("%.17g", value));
    row.push_back(stats::form_name(fit.model.form));
    for (double param : fit.model.params) row.push_back(util::format("%.17g", param));
    row.push_back(util::format("%.6g", fit.model.sse));
    row.push_back(util::format("%.6f", fit.model.r2));
    row.push_back(util::format("%.6g", fit.max_fit_rel_error));
    row.push_back(util::format("%.17g", fit.extrapolated));
    row.push_back(util::format("%.17g", fit.clamped));
    row.push_back(fit.influential ? "1" : "0");
    row.push_back(fit.has_interval ? util::format("%.17g", fit.interval.lo) : "");
    row.push_back(fit.has_interval ? util::format("%.17g", fit.interval.hi) : "");
    row.push_back(fit.has_bayes ? util::format("%.17g", fit.bayes.lo) : "");
    row.push_back(fit.has_bayes ? util::format("%.17g", fit.bayes.median) : "");
    row.push_back(fit.has_bayes ? util::format("%.17g", fit.bayes.hi) : "");
    row.push_back(fit.has_bayes ? stats::form_name(fit.bayes.map_form) : "");
    row.push_back(fit.has_bayes ? util::format("%.6g", fit.bayes.map_weight) : "");
    table.add_row(std::move(row));
  }
  return table.to_csv();
}

std::string FitReport::summary() const {
  std::size_t influential = 0;
  for (const ElementFit& fit : elements)
    if (fit.influential) ++influential;

  std::ostringstream out;
  out << "extrapolation to " << target << " " << axis_name << " from {";
  for (std::size_t i = 0; i < axis.size(); ++i) out << (i ? ", " : "") << axis[i];
  out << "}\n";
  out << "  elements: " << elements.size() << " total, " << influential << " influential\n";
  out << "  winning forms (influential elements):\n";
  for (const auto& [form, count] : form_histogram())
    out << "    " << form << ": " << count << "\n";
  out << "  worst influential fit error: "
      << util::human_percent(worst_influential_error()) << "\n";
  return out.str();
}

}  // namespace pmacx::core
