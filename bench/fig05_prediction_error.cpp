// Reproduces Figure 5: the prediction error of the seven algorithms (the
// neural predictor and six simple ones) on the eight emulated trace data
// sets of Table I. Prediction is per sub-zone with the world estimate being
// the sum of zone predictions (§IV-B); the error metric is the paper's
// normalized absolute error (§IV-D2).

#include <cstdio>
#include <map>

#include "bench/common.hpp"
#include "emu/datasets.hpp"
#include "predict/evaluate.hpp"

using namespace mmog;

int main() {
  bench::banner("Figure 5",
                "Accuracy of seven prediction algorithms on MMOG data");

  const auto sets = emu::table1_datasets();
  // First half of each simulated day: warm-up / neural training; the error
  // is scored on the second half.
  const std::size_t start = util::kSamplesPerDay / 2;

  std::vector<std::vector<util::TimeSeries>> zone_series(sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    emu::Emulator emulator(emu::WorldConfig{}, sets[i]);
    zone_series[i] = emulator.run().zone_series();
  }

  std::vector<std::string> names;
  std::map<std::string, std::vector<double>> errors;

  for (std::size_t i = 0; i < sets.size(); ++i) {
    const auto& zones = zone_series[i];

    // Offline phases of the neural predictor (§IV-C) on the warm-up half of
    // a subsample of zones.
    predict::NeuralConfig ncfg;
    ncfg.train.max_eras = 300;
    ncfg.train.patience = 40;
    std::vector<util::TimeSeries> histories;
    for (const auto& zone : zones) {
      histories.push_back(zone.slice(0, start));
    }
    auto model = std::make_shared<const predict::NeuralModel>(
        predict::NeuralModel::fit(ncfg, histories));

    std::vector<bench::NamedFactory> lineup;
    lineup.push_back({"Neural", [model] {
                        return std::make_unique<predict::NeuralPredictor>(
                            model);
                      }});
    for (auto& f : bench::simple_factories()) lineup.push_back(std::move(f));
    lineup.push_back(
        {"Exp. smoothing 25%", [] {
           return std::make_unique<predict::ExponentialSmoothingPredictor>(
               0.25);
         }});
    lineup.push_back(
        {"Exp. smoothing 75%", [] {
           return std::make_unique<predict::ExponentialSmoothingPredictor>(
               0.75);
         }});

    for (const auto& nf : lineup) {
      // nullopt marks an all-zero evaluation window (error undefined); it
      // must not enter the per-set list, or the mean column would average
      // in a fake perfect score.
      const auto err = predict::zones_prediction_error(nf.factory, zones, start);
      if (!err.has_value()) continue;
      if (errors.find(nf.name) == errors.end()) names.push_back(nf.name);
      errors[nf.name].push_back(*err);
    }
  }

  util::TextTable table({"Predictor", "Set 1", "Set 2", "Set 3", "Set 4",
                         "Set 5", "Set 6", "Set 7", "Set 8", "Mean"});
  for (const auto& name : names) {
    std::vector<std::string> row = {name};
    double sum = 0.0;
    for (double e : errors[name]) {
      row.push_back(util::TextTable::num(e, 2) + "%");
      sum += e;
    }
    row.push_back(util::TextTable::num(
                      sum / static_cast<double>(errors[name].size()), 2) +
                  "%");
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_string().c_str());

  // Who wins per set?
  std::printf("Best predictor per data set:\n");
  std::size_t neural_wins = 0;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    std::string best;
    double best_err = 1e18;
    for (const auto& name : names) {
      if (errors[name][i] < best_err) {
        best_err = errors[name][i];
        best = name;
      }
    }
    if (best == "Neural") ++neural_wins;
    std::printf("  %s (%s): %s (%.2f%%)\n", sets[i].name.c_str(),
                std::string(emu::signal_type_name(emu::signal_type(i))).c_str(),
                best.c_str(), best_err);
  }
  std::printf(
      "\nPaper reference: the neural predictor has the lowest errors and\n"
      "adapts to all signal types; it wins clearly on the high-dynamics\n"
      "Type I and III sets. Neural wins here on %zu of 8 sets.\n",
      neural_wins);
  return 0;
}
